// Package experiments reproduces the paper's evaluation: every table and
// figure maps to one function here, returning rows with the paper's four
// metrics (MAE, MARE, Kendall τ, Spearman ρ) on a held-out test split.
// Experiments lists them with the embedding sizes they run at (Schedule);
// cmd/experiments prints them, and this package's golden test re-derives
// every quick-world row and compares it with testdata/quick.csv.
//
// A World bundles the expensive shared artifacts — synthetic road network,
// simulated trip log, node2vec embeddings per dimensionality, and candidate
// sets per generation strategy — and caches them across experiments.
package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pathrank/internal/baseline"
	"pathrank/internal/dataset"
	"pathrank/internal/geo"
	"pathrank/internal/metrics"
	"pathrank/internal/node2vec"
	"pathrank/internal/par"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/traj"
)

// WorldConfig sizes the shared experimental substrate.
type WorldConfig struct {
	Rows, Cols     int
	NumDrivers     int
	TripsPerDriver int
	MinHops        int
	Seed           int64
	// Epochs and Hidden size every model trained by RunModel.
	Epochs int
	Hidden int
	LR     float64
	// TestFrac is the held-out trip fraction.
	TestFrac float64
}

// DefaultWorldConfig is the scale used for the recorded experiment results:
// a ~500-vertex network with 360 trajectories, which trains in tens of
// seconds per configuration on one core while preserving the paper's
// comparative structure.
func DefaultWorldConfig() WorldConfig {
	return WorldConfig{
		Rows: 20, Cols: 25,
		NumDrivers: 60, TripsPerDriver: 6, MinHops: 5,
		Seed:   1,
		Epochs: 12, Hidden: 32, LR: 0.003,
		TestFrac: 0.25,
	}
}

// QuickWorldConfig is a scaled-down variant for smoke tests.
func QuickWorldConfig() WorldConfig {
	return WorldConfig{
		Rows: 10, Cols: 10,
		NumDrivers: 12, TripsPerDriver: 3, MinHops: 4,
		Seed:   1,
		Epochs: 4, Hidden: 12, LR: 0.004,
		TestFrac: 0.25,
	}
}

// Schedule is the embedding sizes an evaluation runs at: Ms is the M axis
// of Table1 and Table2, SweepMs that of SweepM, and MRef the M of every
// other experiment.
type Schedule struct {
	Ms, SweepMs []int
	MRef        int
}

// DefaultSchedule is the schedule of DefaultWorldConfig.
func DefaultSchedule() Schedule {
	return Schedule{Ms: []int{64, 128}, SweepMs: []int{16, 32, 64, 128}, MRef: 64}
}

// QuickSchedule is the schedule of QuickWorldConfig.
func QuickSchedule() Schedule {
	return Schedule{Ms: []int{8, 16}, SweepMs: []int{8, 16}, MRef: 8}
}

// Experiment is one table or sweep of the evaluation under its
// cmd/experiments name.
type Experiment struct {
	Name string
	Run  func(w *World, s Schedule) ([]Row, error)
}

// Experiments is the whole evaluation, in the order cmd/experiments runs
// it.
var Experiments = []Experiment{
	{"table1", func(w *World, s Schedule) ([]Row, error) { return Table1(w, s.Ms) }},
	{"table2", func(w *World, s Schedule) ([]Row, error) { return Table2(w, s.Ms) }},
	{"sweep-k", func(w *World, s Schedule) ([]Row, error) { return SweepK(w, nil, s.MRef) }},
	{"sweep-diversity", func(w *World, s Schedule) ([]Row, error) { return SweepDiversity(w, nil, s.MRef) }},
	{"sweep-m", func(w *World, s Schedule) ([]Row, error) { return SweepM(w, s.SweepMs) }},
	{"sweep-trainsize", func(w *World, s Schedule) ([]Row, error) { return SweepTrainSize(w, nil, s.MRef) }},
	{"baselines", func(w *World, s Schedule) ([]Row, error) { return Baselines(w, s.MRef) }},
	{"ablation-body", func(w *World, s Schedule) ([]Row, error) { return AblationBody(w, s.MRef) }},
	{"ablation-multitask", func(w *World, s Schedule) ([]Row, error) { return AblationMultiTask(w, nil, s.MRef) }},
}

// World caches the shared artifacts of the evaluation.
//
// The trip log is split once into training and test trips by
// dataset.Split, the split pathrank-train's BuildPipeline makes. Training
// queries are generated from the training trips with whatever candidate
// strategy an experiment specifies, with the driven path included at label
// 1 as pathrank-train and the live loop train (only Table1's and Table2's
// truth-excluded group leaves it out). The evaluation set is generated
// once from the test trips under dataset.DefaultConfig (D-TkDI, k=5,
// θ=0.8, truth included), so every configuration in a table is measured
// against the same queries, matching the paper's tables, which vary the
// *training-data* strategy.
type World struct {
	Cfg        WorldConfig
	G          *roadnet.Graph
	Trips      []traj.Trip
	TrainTrips []traj.Trip
	TestTrips  []traj.Trip

	// Cached artifacts are built at most once even when experiment rows
	// run concurrently: each cache key owns a sync.Once, so a second row
	// needing the same embeddings or candidate sets waits for the first
	// instead of duplicating the work.
	mu       sync.Mutex
	embs     map[int]*node2vec.Embeddings
	embOnce  map[int]*sync.Once
	queries  map[string][]dataset.Query
	qErr     map[string]error
	qOnce    map[string]*sync.Once
	test     []dataset.Query
	testErr  error
	testOnce sync.Once
}

// NewWorld builds the road network and trip log.
func NewWorld(cfg WorldConfig) (*World, error) {
	gcfg := roadnet.GenConfig{
		Rows: cfg.Rows, Cols: cfg.Cols, SpacingM: 250, JitterFrac: 0.25,
		RemoveFrac: 0.10, ArterialEvery: 5, Motorway: true,
		Origin: geo.Point{Lon: 9.9187, Lat: 57.0488}, Seed: cfg.Seed,
	}
	g, err := roadnet.Generate(gcfg)
	if err != nil {
		return nil, err
	}
	drivers := traj.NewPopulation(traj.PopulationConfig{NumDrivers: cfg.NumDrivers, Seed: cfg.Seed + 1})
	trips, err := traj.GenerateTrips(g, drivers, traj.TripConfig{
		TripsPerDriver: cfg.TripsPerDriver, MinHops: cfg.MinHops, Seed: cfg.Seed + 2,
	})
	if err != nil {
		return nil, err
	}
	w := &World{
		Cfg: cfg, G: g, Trips: trips,
		embs:    make(map[int]*node2vec.Embeddings),
		embOnce: make(map[int]*sync.Once),
		queries: make(map[string][]dataset.Query),
		qErr:    make(map[string]error),
		qOnce:   make(map[string]*sync.Once),
	}
	w.TrainTrips, w.TestTrips = dataset.Split(trips, cfg.TestFrac, cfg.Seed+8)
	return w, nil
}

// TestQueries returns the (cached) common evaluation set.
func (w *World) TestQueries() ([]dataset.Query, error) {
	w.testOnce.Do(func() {
		w.test, w.testErr = dataset.Generate(w.G, w.TestTrips, dataset.DefaultConfig())
	})
	return w.test, w.testErr
}

// Embeddings returns (cached) node2vec embeddings of dimension m.
func (w *World) Embeddings(m int) *node2vec.Embeddings {
	w.mu.Lock()
	once, ok := w.embOnce[m]
	if !ok {
		once = new(sync.Once)
		w.embOnce[m] = once
	}
	w.mu.Unlock()
	once.Do(func() {
		wc := node2vec.DefaultWalkConfig()
		wc.Seed = w.Cfg.Seed + 3
		tc := node2vec.DefaultTrainConfig(m)
		tc.Seed = w.Cfg.Seed + 4
		e := node2vec.Embed(w.G, wc, tc)
		w.mu.Lock()
		w.embs[m] = e
		w.mu.Unlock()
	})
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.embs[m]
}

// Queries returns (cached) labeled training candidate sets for cfg,
// generated from the training trips.
func (w *World) Queries(cfg dataset.Config) ([]dataset.Query, error) {
	key := fmt.Sprintf("%d/%d/%.3f/%d/%v", cfg.Strategy, cfg.K, cfg.Threshold, cfg.MaxProbe, cfg.IncludeTruth)
	w.mu.Lock()
	once, ok := w.qOnce[key]
	if !ok {
		once = new(sync.Once)
		w.qOnce[key] = once
	}
	w.mu.Unlock()
	once.Do(func() {
		q, err := dataset.Generate(w.G, w.TrainTrips, cfg)
		w.mu.Lock()
		w.queries[key] = q
		w.qErr[key] = err
		w.mu.Unlock()
	})
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.queries[key], w.qErr[key]
}

// Row is one line of a result table.
type Row struct {
	Label  string
	Report metrics.Report
}

// String formats the row for table output.
func (r Row) String() string {
	return fmt.Sprintf("%-34s MAE=%.4f MARE=%.4f tau=%.4f rho=%.4f",
		r.Label, r.Report.MAE, r.Report.MARE, r.Report.Tau, r.Report.Rho)
}

// ModelSpec fully describes one trained configuration.
type ModelSpec struct {
	Data    dataset.Config
	M       int
	Variant pathrank.Variant
	Body    pathrank.Body
	Lambda  float64
	// TrainFrac scales the training set (1.0 = all training queries);
	// used by the training-size sweep.
	TrainFrac float64
}

// RunModel trains one PathRank configuration on training queries generated
// with spec.Data, through pathrank.Fit as pathrank-train does, and evaluates
// it on the world's common evaluation set.
func (w *World) RunModel(spec ModelSpec) (metrics.Report, error) {
	train, err := w.Queries(spec.Data)
	if err != nil {
		return metrics.Report{}, err
	}
	test, err := w.TestQueries()
	if err != nil {
		return metrics.Report{}, err
	}
	if spec.TrainFrac > 0 && spec.TrainFrac < 1 {
		n := int(float64(len(train)) * spec.TrainFrac)
		if n < 1 {
			n = 1
		}
		train = train[:n]
	}
	model, _, err := pathrank.Fit(w.G.NumVertices(), w.Embeddings(spec.M), train, pathrank.Config{
		EmbeddingDim: spec.M, Hidden: w.Cfg.Hidden,
		Variant: spec.Variant, Body: spec.Body,
		MultiTaskLambda: spec.Lambda, Seed: w.Cfg.Seed + 6,
	}, pathrank.TrainConfig{
		Epochs: w.Cfg.Epochs, LR: w.Cfg.LR, ClipNorm: 5, Seed: w.Cfg.Seed + 7,
	})
	if err != nil {
		return metrics.Report{}, err
	}
	return model.Evaluate(test), nil
}

// Training candidate sets hold the driven path at label 1, as
// pathrank-train's and the live loop's do (dataset.DefaultConfig), so every
// table measures the protocol the product trains under.
func dataTkDI(k int) dataset.Config {
	return dataset.Config{Strategy: dataset.TkDI, K: k, IncludeTruth: true}
}

func dataDTkDI(k int, threshold float64) dataset.Config {
	return dataset.Config{Strategy: dataset.DTkDI, K: k, Threshold: threshold, IncludeTruth: true}
}

// Table1 reproduces the paper's Table 1: training-data strategies (TkDI vs
// D-TkDI) crossed with embedding size M under PR-A1 (frozen embeddings).
func Table1(w *World, ms []int) ([]Row, error) {
	return strategyTable(w, ms, pathrank.PRA1)
}

// Table2 reproduces the paper's Table 2: the same grid under PR-A2
// (fine-tuned embeddings).
func Table2(w *World, ms []int) ([]Row, error) {
	return strategyTable(w, ms, pathrank.PRA2)
}

// strategySpecs are the rows of Table1 and Table2 under variant v, with
// their labels: TkDI and D-TkDI at each M, first under the headline
// protocol, then as the truth-excluded group, whose training candidate
// sets hold only what the generator found. There the generator alone must
// cover the driver's choice, which is what the paper argues makes D-TkDI
// matter: diversified candidates overlap the (often non-shortest) driven
// path far more than plain top-k shortest paths do.
func strategySpecs(ms []int, v pathrank.Variant) ([]ModelSpec, []string) {
	var (
		specs  []ModelSpec
		labels []string
	)
	for _, group := range []string{"", " truth-excluded"} {
		for _, data := range []dataset.Config{dataTkDI(5), dataDTkDI(5, 0.8)} {
			data.IncludeTruth = group == ""
			for _, m := range ms {
				specs = append(specs, ModelSpec{Data: data, M: m, Variant: v, Body: pathrank.GRUBody})
				labels = append(labels, fmt.Sprintf("%s %s M=%d%s", data.Strategy, v, m, group))
			}
		}
	}
	return specs, labels
}

func strategyTable(w *World, ms []int, v pathrank.Variant) ([]Row, error) {
	specs, labels := strategySpecs(ms, v)
	return modelRows(w, len(specs), func(i int) (ModelSpec, string) { return specs[i], labels[i] })
}

// runRows evaluates f(i) for every row index in [0, n) on par.For's
// workers and returns the rows in index order. Every row trains with its
// own deterministic seed and writes to its own result slot, so a table is
// bitwise identical for any worker count. After an error no further row
// starts, and the first error in row order is returned.
func runRows(n int, f func(i int) (Row, error)) ([]Row, error) {
	rows := make([]Row, n)
	errs := make([]error, n)
	var failed atomic.Bool
	par.For(n, func(i int) {
		if failed.Load() {
			return
		}
		if rows[i], errs[i] = f(i); errs[i] != nil {
			failed.Store(true)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// modelRows trains and evaluates one model per row, spec(i) giving row i's
// configuration and label.
func modelRows(w *World, n int, spec func(i int) (ModelSpec, string)) ([]Row, error) {
	return runRows(n, func(i int) (Row, error) {
		s, label := spec(i)
		rep, err := w.RunModel(s)
		if err != nil {
			return Row{}, err
		}
		return Row{Label: label, Report: rep}, nil
	})
}

// dtkdiA2 is the reference configuration the sweeps and ablations vary:
// D-TkDI k=5 θ=0.8 training data, PR-A2, GRU body.
func dtkdiA2(m int) ModelSpec {
	return ModelSpec{Data: dataDTkDI(5, 0.8), M: m, Variant: pathrank.PRA2, Body: pathrank.GRUBody}
}

// SweepK varies the candidate-set size k (Figure-style experiment F1).
func SweepK(w *World, ks []int, m int) ([]Row, error) {
	if len(ks) == 0 {
		ks = []int{3, 5, 8, 10}
	}
	return modelRows(w, len(ks), func(i int) (ModelSpec, string) {
		s := dtkdiA2(m)
		s.Data.K = ks[i]
		return s, fmt.Sprintf("D-TkDI k=%d M=%d", ks[i], m)
	})
}

// SweepDiversity varies the D-TkDI similarity threshold (F2).
func SweepDiversity(w *World, thresholds []float64, m int) ([]Row, error) {
	if len(thresholds) == 0 {
		thresholds = []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	}
	return modelRows(w, len(thresholds), func(i int) (ModelSpec, string) {
		s := dtkdiA2(m)
		s.Data.Threshold = thresholds[i]
		return s, fmt.Sprintf("D-TkDI theta=%.1f M=%d", thresholds[i], m)
	})
}

// SweepM varies the embedding dimensionality (F3), extending the tables'
// M axis downward.
func SweepM(w *World, ms []int) ([]Row, error) {
	return modelRows(w, len(ms), func(i int) (ModelSpec, string) {
		return dtkdiA2(ms[i]), fmt.Sprintf("D-TkDI PR-A2 M=%d", ms[i])
	})
}

// SweepTrainSize varies the training-set fraction (F4).
func SweepTrainSize(w *World, fracs []float64, m int) ([]Row, error) {
	if len(fracs) == 0 {
		fracs = []float64{0.25, 0.5, 0.75, 1.0}
	}
	return modelRows(w, len(fracs), func(i int) (ModelSpec, string) {
		s := dtkdiA2(m)
		s.TrainFrac = fracs[i]
		return s, fmt.Sprintf("train=%3.0f%% M=%d", fracs[i]*100, m)
	})
}

// Baselines compares PathRank against the non-learned and shallow-learned
// rankers on the same split (B1).
func Baselines(w *World, m int) ([]Row, error) {
	spec := dtkdiA2(m)
	train, err := w.Queries(spec.Data)
	if err != nil {
		return nil, err
	}
	test, err := w.TestQueries()
	if err != nil {
		return nil, err
	}

	var rows []Row
	for _, s := range []baseline.Scorer{
		baseline.LengthRank{G: w.G},
		baseline.TimeRank{G: w.G},
	} {
		rows = append(rows, Row{Label: s.Name(), Report: baseline.Evaluate(s, test)})
	}
	lr := &baseline.LinearRegression{G: w.G}
	if err := lr.Fit(train); err != nil {
		return nil, err
	}
	rows = append(rows, Row{Label: lr.Name(), Report: baseline.Evaluate(lr, test)})

	rep, err := w.RunModel(spec)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Row{Label: fmt.Sprintf("PathRank PR-A2 M=%d", m), Report: rep})
	return rows, nil
}

// AblationBody swaps the sequence model (A1 in DESIGN.md).
func AblationBody(w *World, m int) ([]Row, error) {
	bodies := []pathrank.Body{pathrank.GRUBody, pathrank.BiGRUBody, pathrank.LSTMBody, pathrank.MeanPoolBody, pathrank.AttnGRUBody}
	return modelRows(w, len(bodies), func(i int) (ModelSpec, string) {
		s := dtkdiA2(m)
		s.Body = bodies[i]
		return s, fmt.Sprintf("body=%s M=%d", bodies[i], m)
	})
}

// AblationMultiTask varies the auxiliary-loss weight λ (A2 in DESIGN.md).
func AblationMultiTask(w *World, lambdas []float64, m int) ([]Row, error) {
	if len(lambdas) == 0 {
		lambdas = []float64{0, 0.25, 0.5, 1.0}
	}
	return modelRows(w, len(lambdas), func(i int) (ModelSpec, string) {
		s := dtkdiA2(m)
		s.Lambda = lambdas[i]
		return s, fmt.Sprintf("lambda=%.2f M=%d", lambdas[i], m)
	})
}
