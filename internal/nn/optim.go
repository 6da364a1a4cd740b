package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba 2015), the optimizer used
// to train PathRank. An Adam owns its step count and its moment slots, so
// each one starts from zero moments whatever ran on the params before.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t      int
	params []*Param
	m, v   []Vec // per param; nil for a param frozen at NewAdam
}

// NewAdam returns Adam with the standard defaults (β1=0.9, β2=0.999) for
// params, with zeroed moment slots for each of them that is not Frozen.
// Frozen must not be cleared while the Adam steps them.
func NewAdam(lr float64, params []*Param) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8, params: params,
		m: make([]Vec, len(params)), v: make([]Vec, len(params))}
	for i, p := range params {
		if !p.Frozen {
			a.m[i], a.v[i] = NewVec(len(p.W)), NewVec(len(p.W))
		}
	}
	return a
}

// Step applies one Adam update to the params and zeroes their gradients.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for k, p := range a.params {
		if p.Frozen {
			p.ZeroGrad()
			continue
		}
		m, v := a.m[k], a.v[k]
		for i := range p.W {
			g := p.G[i]
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mHat := m[i] / bc1
			vHat := v[i] / bc2
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
