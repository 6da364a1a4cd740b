// Package pathrank implements the paper's primary contribution: a
// data-driven framework that ranks candidate paths between an origin and a
// destination the way local drivers would, learned from historical
// trajectories.
//
// Ranking is modeled as regression. A candidate path — a sequence of
// vertices — is embedded vertex-by-vertex with a node2vec-initialized
// embedding matrix B, folded by a (bi)directional GRU, summarized, and
// passed through a fully connected head that outputs an estimated
// similarity score in [0,1]. Training minimizes the squared error against
// the ground-truth score WeightedJaccard(candidate, trajectory path).
//
// Two variants from the paper are supported:
//
//   - PR-A1 keeps the embedding matrix B frozen at its node2vec values.
//   - PR-A2 fine-tunes B with backpropagation (the paper's best variant).
//
// The multi-task extension (PR-M) attaches auxiliary heads that regress the
// candidate's length and travel-time ratios, sharing the recurrent body.
package pathrank

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"

	"pathrank/internal/nn"
	"pathrank/internal/node2vec"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// Variant selects how the embedding matrix is treated during training.
type Variant int

// Model variants from the paper's evaluation.
const (
	// PRA1 freezes the node2vec embeddings.
	PRA1 Variant = iota
	// PRA2 fine-tunes the embeddings end to end.
	PRA2
)

// String names the variant as in the paper.
func (v Variant) String() string {
	switch v {
	case PRA1:
		return "PR-A1"
	case PRA2:
		return "PR-A2"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Body selects the sequence model folding the embedded path.
type Body int

// Sequence-model bodies. GRUBody is the paper's architecture; the others
// exist for the ablation study.
const (
	GRUBody Body = iota
	BiGRUBody
	LSTMBody
	MeanPoolBody
	// AttnGRUBody is a GRU body summarized with additive attention pooling
	// instead of mean pooling.
	AttnGRUBody
)

// String names the body.
func (b Body) String() string {
	switch b {
	case GRUBody:
		return "gru"
	case BiGRUBody:
		return "bigru"
	case LSTMBody:
		return "lstm"
	case MeanPoolBody:
		return "meanpool"
	case AttnGRUBody:
		return "attn-gru"
	default:
		return fmt.Sprintf("body(%d)", int(b))
	}
}

// Config parameterizes a PathRank model.
type Config struct {
	EmbeddingDim int     // M in the paper (64 or 128 in the tables)
	Hidden       int     // GRU hidden size per direction
	Variant      Variant // PR-A1 or PR-A2
	Body         Body    // sequence model (GRUBody reproduces the paper)

	// MultiTaskLambda weights the auxiliary length/time-ratio losses; 0
	// disables the multi-task extension.
	MultiTaskLambda float64

	Seed int64
}

// DefaultConfig mirrors the paper's best configuration (PR-A2, M=128)
// scaled to a trainable-on-one-core hidden size.
func DefaultConfig() Config {
	return Config{EmbeddingDim: 128, Hidden: 64, Variant: PRA2, Body: GRUBody, Seed: 1}
}

// Model is a trained or trainable PathRank scorer.
type Model struct {
	cfg Config

	emb     *nn.Embedding
	gru     *nn.GRU
	bigru   *nn.BiGRU
	lstm    *nn.LSTM
	attn    *nn.Attention
	head    *nn.Dense
	auxLen  *nn.Dense // multi-task heads (nil unless MultiTaskLambda > 0)
	auxTime *nn.Dense

	params []*nn.Param

	// fwdPool recycles forwardState headers and their id/embedding/summary
	// buffers across Score and training steps; fusedPool recycles the
	// packed-matrix workspaces of ScoreBatchFused's chunks, orderPool its
	// sweeps' sort orders (*[]int32). They keep the scoring hot paths
	// allocation-free in steady state (see the alloc-regression tests) and
	// are safe for the concurrent Score calls the serving layer issues
	// against a model that is not being trained.
	fwdPool   sync.Pool
	fusedPool sync.Pool
	orderPool sync.Pool

	// plan is the inference plan derived from the current weights (plan.go);
	// nil until first needed. Everything that writes weights — Train and
	// FineTune, Load, InitEmbeddings — stores nil, so a plan never outlives
	// the weights it was built from; a Clone starts without one.
	plan atomic.Pointer[plan]
	// loadedFP is the hash of the params stream the model was loaded from:
	// a stream loads only as the pinned preamble and one value message
	// (nn.UnmarshalParams), the shape every writer gives the weights'
	// stream, so its hash is their fingerprint. (A hand-made stream with a
	// non-minimal field inside also loads; its hash is a fingerprint no
	// encoder gives, but two different weight sets still never share
	// one.) stream is the params stream of the current weights and
	// its SHA-256 once a save has encoded them, so every later save and
	// fingerprint reuses both. Everything that writes weights stores nil in
	// both, as for plan.
	loadedFP atomic.Pointer[[sha256.Size]byte]
	stream   atomic.Pointer[savedStream]
}

// savedStream is a params stream and its SHA-256.
type savedStream struct {
	b   []byte
	sum [sha256.Size]byte
}

// New builds an untrained model for a graph with numVertices vertices.
func New(numVertices int, cfg Config) (*Model, error) {
	return newModel(numVertices, cfg, rand.New(rand.NewSource(cfg.Seed)))
}

// loadModel builds the model for a graph with numVertices vertices from
// weights written by Save: its tensors are shaped and zeroed, never
// randomly initialized, since the load overwrites them all. The hash of
// params is the model's fingerprint, so Fingerprint need not re-encode the
// weights. With a non-nil want, params must hash to *want: otherwise the
// load fails with ErrArtifactCorrupt, whatever the decode made of the
// bytes. The hash runs on its own
// goroutine while the weights decode; both only read params, and
// loadModel returns, on every path, only once the hash is done.
func loadModel(numVertices int, cfg Config, params []byte, want *[sha256.Size]byte) (*Model, error) {
	var (
		sum    [sha256.Size]byte
		hashed = make(chan struct{})
	)
	go func() {
		sum = sha256.Sum256(params)
		close(hashed)
	}()
	m, err := decodeModel(numVertices, cfg, params)
	<-hashed
	if want != nil && sum != *want {
		return nil, fmt.Errorf("%w: params stream does not match its digest", ErrArtifactCorrupt)
	}
	if err != nil {
		return nil, err
	}
	m.loadedFP.Store(&sum)
	return m, nil
}

// LoadModelHashed is loadModel for a params stream whose SHA-256 the
// caller has already verified to be sum, as LoadShardMap verifies the
// shard map's stream against its recorded fingerprint: it decodes params
// without hashing them again.
func LoadModelHashed(numVertices int, cfg Config, params []byte, sum [sha256.Size]byte) (*Model, error) {
	m, err := decodeModel(numVertices, cfg, params)
	if err != nil {
		return nil, err
	}
	m.loadedFP.Store(&sum)
	return m, nil
}

// decodeModel is loadModel without the fingerprint.
func decodeModel(numVertices int, cfg Config, params []byte) (*Model, error) {
	m, err := newModel(numVertices, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("pathrank: model config: %w", err)
	}
	if err := nn.UnmarshalParams(params, m.params); err != nil {
		return nil, fmt.Errorf("pathrank: model weights: %w", err)
	}
	return m, nil
}

// weightsChanged drops what was derived from the previous weights.
func (m *Model) weightsChanged() {
	m.plan.Store(nil)
	m.loadedFP.Store(nil)
	m.stream.Store(nil)
}

// ParamsStream returns the params stream (nn.MarshalParams) of the
// current weights and its SHA-256, encoding and hashing them once per set
// of weights. The stream is shared: callers must not modify it.
func (m *Model) ParamsStream() ([]byte, [sha256.Size]byte, error) {
	if s := m.stream.Load(); s != nil {
		return s.b, s.sum, nil
	}
	b, err := nn.MarshalParams(m.params)
	if err != nil {
		return nil, [sha256.Size]byte{}, err
	}
	s := &savedStream{b: b, sum: sha256.Sum256(b)}
	m.stream.Store(s)
	return s.b, s.sum, nil
}

// newModel builds a model whose layers draw their initial weights from
// rng; a nil rng leaves every tensor zero.
func newModel(numVertices int, cfg Config, rng *rand.Rand) (*Model, error) {
	if cfg.EmbeddingDim <= 0 || cfg.Hidden <= 0 {
		return nil, fmt.Errorf("pathrank: embedding dim %d and hidden %d must be positive",
			cfg.EmbeddingDim, cfg.Hidden)
	}
	if numVertices <= 0 {
		return nil, fmt.Errorf("pathrank: vocabulary must be positive, got %d", numVertices)
	}
	m := &Model{cfg: cfg}
	m.emb = nn.NewEmbedding(numVertices, cfg.EmbeddingDim, rng)
	m.emb.Table.Frozen = cfg.Variant == PRA1

	var outDim int
	switch cfg.Body {
	case GRUBody:
		m.gru = nn.NewGRU("gru", cfg.EmbeddingDim, cfg.Hidden, rng)
		outDim = cfg.Hidden
	case BiGRUBody:
		m.bigru = nn.NewBiGRU("bigru", cfg.EmbeddingDim, cfg.Hidden, rng)
		outDim = m.bigru.OutDim()
	case LSTMBody:
		m.lstm = nn.NewLSTM("lstm", cfg.EmbeddingDim, cfg.Hidden, rng)
		outDim = cfg.Hidden
	case MeanPoolBody:
		outDim = cfg.EmbeddingDim
	case AttnGRUBody:
		m.gru = nn.NewGRU("gru", cfg.EmbeddingDim, cfg.Hidden, rng)
		att := cfg.Hidden / 2
		if att < 4 {
			att = 4
		}
		m.attn = nn.NewAttention("attn", cfg.Hidden, att, rng)
		outDim = cfg.Hidden
	default:
		return nil, fmt.Errorf("pathrank: unknown body %d", cfg.Body)
	}
	m.head = nn.NewDense("head", outDim, 1, rng)

	m.params = append(m.params, m.emb.Params()...)
	switch cfg.Body {
	case GRUBody:
		m.params = append(m.params, m.gru.Params()...)
	case BiGRUBody:
		m.params = append(m.params, m.bigru.Params()...)
	case LSTMBody:
		m.params = append(m.params, m.lstm.Params()...)
	case AttnGRUBody:
		m.params = append(m.params, m.gru.Params()...)
		m.params = append(m.params, m.attn.Params()...)
	}
	m.params = append(m.params, m.head.Params()...)

	if cfg.MultiTaskLambda > 0 {
		m.auxLen = nn.NewDense("aux.len", outDim, 1, rng)
		m.auxTime = nn.NewDense("aux.time", outDim, 1, rng)
		m.params = append(m.params, m.auxLen.Params()...)
		m.params = append(m.params, m.auxTime.Params()...)
	}
	return m, nil
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// NumParams returns the number of scalar trainable weights.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.params {
		n += p.NumParams()
	}
	return n
}

// InitEmbeddings loads node2vec vectors into the embedding matrix B. The
// embedding dimensionality must match cfg.EmbeddingDim.
func (m *Model) InitEmbeddings(emb *node2vec.Embeddings) error {
	if emb.Dim != m.cfg.EmbeddingDim {
		return fmt.Errorf("pathrank: node2vec dim %d != model embedding dim %d", emb.Dim, m.cfg.EmbeddingDim)
	}
	if emb.NumVertices() != m.emb.Vocab() {
		return fmt.Errorf("pathrank: node2vec has %d vertices, model vocabulary is %d",
			emb.NumVertices(), m.emb.Vocab())
	}
	for v := 0; v < emb.NumVertices(); v++ {
		m.emb.SetRow(v, emb.Vector(roadnet.VertexID(v)))
	}
	m.weightsChanged()
	return nil
}

// forwardState carries the activations of one forward pass for backprop.
// States come from the model's fwdPool: the id/embedding-pointer slices,
// the mean-pool summary and the inference head output live in buffers that
// are reused across passes, so a released state makes the next Score
// allocation-free in steady state.
type forwardState struct {
	ids          []int
	xs           []nn.Vec
	hs           []nn.Vec
	gruCache     *nn.GRUCache
	biCache      *nn.BiGRUCache
	lstmCache    *nn.LSTMCache
	attnCache    *nn.AttentionCache
	summary      nn.Vec
	headOut      nn.Vec
	headCache    *nn.DenseCache
	auxLenOut    nn.Vec
	auxLenCache  *nn.DenseCache
	auxTimeOut   nn.Vec
	auxTimeCache *nn.DenseCache

	// Reusable buffers backing summary (mean-pool bodies) and headOut
	// (inference passes); owner is the pool the state returns to.
	summaryBuf nn.Vec
	headBuf    nn.Vec
	owner      *Model
}

// release returns pooled scratch memory held by the state's caches and the
// state itself to the model's pool. The state and any activations or
// gradients derived from it must not be used afterwards.
func (st *forwardState) release() {
	if st.gruCache != nil {
		st.gruCache.Release()
		st.gruCache = nil
	}
	if st.biCache != nil {
		st.biCache.Release()
		st.biCache = nil
	}
	if st.lstmCache != nil {
		st.lstmCache.Release()
		st.lstmCache = nil
	}
	st.attnCache = nil
	st.hs = nil
	st.headCache, st.auxLenCache, st.auxTimeCache = nil, nil, nil
	if st.owner != nil {
		st.owner.fwdPool.Put(st)
	}
}

// forward runs the network over the path's vertex sequence. Training passes
// (train=true) build the backward caches of every head; inference passes
// compute only the main head, into pooled buffers.
func (m *Model) forward(p spath.Path, train bool) *forwardState {
	st, _ := m.fwdPool.Get().(*forwardState)
	if st == nil {
		st = &forwardState{}
	}
	st.owner = m
	n := len(p.Vertices)
	st.ids = grow(st.ids, n)
	st.xs = grow(st.xs, n)
	for i, v := range p.Vertices {
		st.ids[i] = int(v)
		// Alias the embedding rows: weights do not change between one
		// sample's forward and backward passes (optimizer steps happen
		// after), so the defensive copy would only produce garbage.
		st.xs[i] = m.emb.Lookup(int(v))
	}
	switch m.cfg.Body {
	case GRUBody:
		st.hs, st.gruCache = m.gru.Forward(st.xs)
	case BiGRUBody:
		st.hs, st.biCache = m.bigru.Forward(st.xs)
	case LSTMBody:
		st.hs, st.lstmCache = m.lstm.Forward(st.xs)
	case MeanPoolBody:
		st.hs = st.xs
	case AttnGRUBody:
		st.hs, st.gruCache = m.gru.Forward(st.xs)
	}
	// Summary over the hidden states. Mean pooling is robust to the large
	// variation in path lengths (a candidate can have 5 or 80 vertices)
	// and matches the paper's use of all hidden states H_i; AttnGRUBody
	// learns the pooling weights instead.
	if m.cfg.Body == AttnGRUBody {
		st.summary, st.attnCache = m.attn.Forward(st.hs)
	} else {
		st.summaryBuf = grow(st.summaryBuf, len(st.hs[0]))
		meanVecsInto(st.summaryBuf, st.hs)
		st.summary = st.summaryBuf
	}
	if train {
		st.headOut, st.headCache = m.head.Forward(st.summary)
		if m.auxLen != nil {
			st.auxLenOut, st.auxLenCache = m.auxLen.Forward(st.summary)
			st.auxTimeOut, st.auxTimeCache = m.auxTime.Forward(st.summary)
		}
		return st
	}
	st.headBuf = grow(st.headBuf, m.head.W.Rows)
	m.head.ForwardInto(st.summary, st.headBuf)
	st.headOut = st.headBuf
	return st
}

// meanVecsInto computes the elementwise mean of vs into dst, with the same
// accumulation order (ascending index, then one scale) as every scoring
// path in this package — the order is part of the bit-reproducibility
// contract.
func meanVecsInto(dst nn.Vec, vs []nn.Vec) {
	for i := range dst {
		dst[i] = 0
	}
	for _, v := range vs {
		nn.AddTo(dst, v)
	}
	nn.Scale(1/float64(len(vs)), dst)
}

// grow returns s resized to length n, reusing capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// backward propagates the loss gradients (dScore on the main head; dLen and
// dTime on the auxiliary heads, ignored when multi-task is off) and
// accumulates parameter gradients.
func (m *Model) backward(st *forwardState, dScore, dLen, dTime float64) {
	dSummary := m.head.Backward(st.headCache, nn.Vec{dScore})
	if m.auxLen != nil {
		nn.AddTo(dSummary, m.auxLen.Backward(st.auxLenCache, nn.Vec{dLen}))
		nn.AddTo(dSummary, m.auxTime.Backward(st.auxTimeCache, nn.Vec{dTime}))
	}
	T := len(st.hs)
	var dhs []nn.Vec
	if m.cfg.Body == AttnGRUBody {
		// Attention pooling computes its own per-step gradients.
		dhs = m.attn.Backward(st.attnCache, dSummary)
	} else {
		// Mean pooling distributes the summary gradient uniformly.
		perStep := nn.Copy(dSummary)
		nn.Scale(1/float64(T), perStep)
		dhs = make([]nn.Vec, T)
		for t := range dhs {
			dhs[t] = perStep
		}
	}
	var dxs []nn.Vec
	switch m.cfg.Body {
	case GRUBody, AttnGRUBody:
		dxs = m.gru.Backward(st.gruCache, dhs)
	case BiGRUBody:
		dxs = m.bigru.Backward(st.biCache, dhs)
	case LSTMBody:
		dxs = m.lstm.Backward(st.lstmCache, dhs)
	case MeanPoolBody:
		dxs = dhs
	}
	for t, id := range st.ids {
		m.emb.AccumGrad(id, dxs[t])
	}
}

// Score returns the model's estimated ranking score for p in [0,1]. It is
// safe for concurrent use on a model that is not being trained.
func (m *Model) Score(p spath.Path) float64 {
	if len(p.Vertices) == 0 {
		return 0
	}
	st := m.forward(p, false)
	score := st.headOut[0]
	st.release()
	return score
}

// Clone returns a model with an identical configuration and bit-identical
// weights that shares no mutable state with m. It copies no gradients:
// Train allocates its own. It is how the incremental trainer fine-tunes a
// new generation while the original keeps serving concurrent Score calls.
func (m *Model) Clone() (*Model, error) {
	c, err := newModel(m.emb.Vocab(), m.cfg, nil)
	if err != nil {
		return nil, err
	}
	for i, p := range m.params {
		copy(c.params[i].W, p.W)
		c.params[i].Frozen = p.Frozen
	}
	return c, nil
}

// Save writes the model weights.
func (m *Model) Save(w io.Writer) error {
	b, _, err := m.ParamsStream()
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("pathrank: write model weights: %w", err)
	}
	return nil
}

// Load reads weights saved from a model with an identical configuration:
// all of r, decoded as loadModel decodes an artifact's params.
func (m *Model) Load(r io.Reader) error {
	defer m.weightsChanged() // a failed load may have written some tensors
	b, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("pathrank: read model weights: %w", err)
	}
	return nn.UnmarshalParams(b, m.params)
}
