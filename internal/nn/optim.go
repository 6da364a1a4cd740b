package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba 2015), the optimizer used
// to train PathRank.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
}

// NewAdam returns Adam with the standard defaults (β1=0.9, β2=0.999).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one Adam update and zeroes gradients.
func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		if p.Frozen {
			p.ZeroGrad()
			continue
		}
		if p.m == nil {
			p.m = NewVec(len(p.W))
			p.v = NewVec(len(p.W))
		}
		for i := range p.W {
			g := p.G[i]
			p.m[i] = a.Beta1*p.m[i] + (1-a.Beta1)*g
			p.v[i] = a.Beta2*p.v[i] + (1-a.Beta2)*g*g
			mHat := p.m[i] / bc1
			vHat := p.v[i] / bc2
			p.W[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Epsilon)
		}
		p.ZeroGrad()
	}
}

// MSELoss returns 0.5*(pred-target)^2 and its derivative with respect to
// pred. The 0.5 factor makes the gradient simply (pred-target).
func MSELoss(pred, target float64) (loss, grad float64) {
	d := pred - target
	return 0.5 * d * d, d
}
