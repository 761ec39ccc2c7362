// Package gen is the benchmark's seeded input generator. Every request
// body, fleet job and fleet mutation the benchmark sends comes from here
// and from nothing but the seed: the same seed yields byte-identical
// inputs, and the program under test sees only the generated bytes.
//
// Shapes are drawn stratified. A stratum is a multiset of clusters —
// each a NIC technology and a node count — and every round of a stream
// visits each live stratum once, in a seeded order, preferring a
// different model group in each of four consecutive rounds. Search and
// simulation cost swing by two orders of magnitude with the NIC mix and
// the node split, so purely random draws would make a run's numbers
// depend on which shapes a seed happened to pick; stratifying keeps that
// spread small while the seed still decides cluster order, model group
// per round, degrees and event storms.
package gen

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
)

// nicNames are the NIC technologies a generated cluster uses, spelled as the
// request schema spells them.
var nicNames = []string{"InfiniBand", "RoCE", "Ethernet"}

// gpusPerNode is the GPU count of every generated node (the daemon's
// standard node).
const gpusPerNode = 8

// Table-2 parameter groups: global batch and layer count per group id.
// Every group uses micro-batch 4.
var (
	groupBatch  = [5]int{0, 768, 1536, 1536, 2688}
	groupLayers = [5]int{0, 30, 30, 36, 36}
)

const microBatch = 4

// Cluster is one cluster of a generated topology. Name is a label that
// changes no answer; only serve-mix's repeated cold plans set it.
type Cluster struct {
	Name  string `json:"name,omitempty"`
	NIC   string `json:"nic"`
	Nodes int    `json:"nodes"`
}

// shape is a generated topology plus a Table-2 parameter group.
type shape struct {
	Clusters []Cluster
	Group    int
}

// nodes is the shape's node count.
func (s shape) nodes() int {
	n := 0
	for _, c := range s.Clusters {
		n += c.Nodes
	}
	return n
}

// Degrees is a (tensor, pipeline, data) parallel triple.
type Degrees struct{ T, P, D int }

// cells lists the (t, p) degrees the request schema admits for the
// shape, in the order t ascending then p ascending: t divides the node's
// GPU count, p is at most the node count and the layer count, t·p tiles
// the devices, and the global batch splits into whole micro-batches at
// the implied data-parallel degree. A search answer must report exactly
// this many cells; a plan or a simulation asks for one of them.
func (s shape) cells() []Degrees {
	n := s.nodes() * gpusPerNode
	var cells []Degrees
	for t := 1; t <= gpusPerNode; t++ {
		if gpusPerNode%t != 0 {
			continue
		}
		for p := 1; p <= s.nodes(); p++ {
			if n%(t*p) != 0 || groupLayers[s.Group] < p {
				continue
			}
			d := n / (t * p)
			b := groupBatch[s.Group]
			if b%d != 0 || (b/d)%microBatch != 0 {
				continue
			}
			cells = append(cells, Degrees{T: t, P: p, D: d})
		}
	}
	return cells
}

// stratum holds every shape of one cluster multiset in a seeded order,
// and which of them a stream has handed out.
type stratum struct {
	keys   []shape
	used   []bool
	left   int
	groups []int // the group each round prefers, cycled
}

// shapeStream hands out shapes stratified by cluster multiset. Without
// cycling, no shape is handed out twice; a stratum that runs dry drops
// out of later rounds. With cycling, a dry stratum refills.
type shapeStream struct {
	rng    *rand.Rand
	strata []*stratum
	cycle  bool
	order  []int
	pos    int
	round  int
}

// newShapeStream enumerates every shape of 1–3 clusters and minNodes to
// maxNodes nodes. salt separates streams drawn from one seed.
func newShapeStream(seed, salt uint64, minNodes, maxNodes int, cycle bool) *shapeStream {
	s := &shapeStream{rng: rand.New(rand.NewPCG(seed, salt)), cycle: cycle}
	index := map[string]*stratum{}
	for total := minNodes; total <= maxNodes; total++ {
		for k := 1; k <= 3 && k <= total; k++ {
			for _, comp := range compositions(total, k) {
				for _, nics := range tuples(len(nicNames), k) {
					var cl []Cluster
					for i, n := range nics {
						cl = append(cl, Cluster{NIC: nicNames[n], Nodes: comp[i]})
					}
					key := multisetKey(cl)
					st := index[key]
					if st == nil {
						st = &stratum{groups: []int{1, 2, 3, 4}}
						index[key] = st
						s.strata = append(s.strata, st)
					}
					for g := 1; g <= 4; g++ {
						if sh := (shape{Clusters: cl, Group: g}); len(sh.cells()) > 0 {
							st.keys = append(st.keys, sh)
						}
					}
				}
			}
		}
	}
	kept := s.strata[:0]
	for _, st := range s.strata {
		s.rng.Shuffle(len(st.keys), func(i, j int) { st.keys[i], st.keys[j] = st.keys[j], st.keys[i] })
		s.rng.Shuffle(len(st.groups), func(i, j int) { st.groups[i], st.groups[j] = st.groups[j], st.groups[i] })
		st.used = make([]bool, len(st.keys))
		st.left = len(st.keys)
		if st.left > 0 {
			kept = append(kept, st)
		}
	}
	s.strata = kept
	return s
}

// multisetKey names a cluster list's stratum: its clusters in sorted
// order.
func multisetKey(cl []Cluster) string {
	parts := make([]string, len(cl))
	for i, c := range cl {
		parts[i] = fmt.Sprintf("%s:%d", c.NIC, c.Nodes)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// roundSize reports how many strata one round visits at most.
func (s *shapeStream) roundSize() int { return len(s.strata) }

// next returns the next shape; false once every stratum is dry (never,
// when cycling).
func (s *shapeStream) next() (shape, bool) {
	for {
		if s.pos == len(s.order) {
			s.order = s.order[:0]
			for i, st := range s.strata {
				if st.left == 0 && s.cycle {
					clear(st.used)
					st.left = len(st.keys)
				}
				if st.left > 0 {
					s.order = append(s.order, i)
				}
			}
			if len(s.order) == 0 {
				return shape{}, false
			}
			s.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
			s.pos = 0
			s.round++
		}
		st := s.strata[s.order[s.pos]]
		s.pos++
		if st.left == 0 {
			continue
		}
		want := st.groups[(s.round-1)%len(st.groups)]
		pick := -1
		for i, sh := range st.keys {
			if !st.used[i] && (pick < 0 || sh.Group == want) {
				pick = i
				if sh.Group == want {
					break
				}
			}
		}
		st.used[pick] = true
		st.left--
		return st.keys[pick], true
	}
}

// tuples lists every k-tuple over {0..n-1}.
func tuples(n, k int) [][]int {
	if k == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, rest := range tuples(n, k-1) {
		for i := range n {
			out = append(out, append(append([]int(nil), rest...), i))
		}
	}
	return out
}

// compositions lists the ordered ways to split total into k positive
// parts.
func compositions(total, k int) [][]int {
	if k == 1 {
		return [][]int{{total}}
	}
	var out [][]int
	for first := 1; first <= total-(k-1); first++ {
		for _, rest := range compositions(total-first, k-1) {
			out = append(out, append([]int{first}, rest...))
		}
	}
	return out
}

// wireConfig is the subset of the daemon's request schema the benchmark
// sends.
type wireConfig struct {
	Env          string        `json:"env,omitempty"`
	Nodes        int           `json:"nodes,omitempty"`
	Clusters     []Cluster     `json:"clusters,omitempty"`
	Model        wireModel     `json:"model"`
	TensorSize   int           `json:"tensor_size,omitempty"`
	PipelineSize int           `json:"pipeline_size,omitempty"`
	Scenario     *wireScenario `json:"scenario,omitempty"`
}

// wireModel names a Table-2 parameter group.
type wireModel struct {
	Group int `json:"group"`
}

// wireScenario is a named storm of cluster events.
type wireScenario struct {
	Name   string      `json:"name"`
	Events []wireEvent `json:"events"`
	Seed   int64       `json:"seed,omitempty"`
}

// wireEvent is one scripted cluster event, in the scenario schema.
type wireEvent struct {
	Kind      string  `json:"kind"`
	At        float64 `json:"at"`
	Node      int     `json:"node,omitempty"`
	Class     string  `json:"class,omitempty"`
	Factor    float64 `json:"factor,omitempty"`
	Src       int     `json:"src,omitempty"`
	Dst       int     `json:"dst,omitempty"`
	Gbps      float64 `json:"gbps,omitempty"`
	Until     float64 `json:"until,omitempty"`
	Cluster   int     `json:"cluster,omitempty"`
	DelayMs   float64 `json:"delay_ms,omitempty"`
	JitterMs  float64 `json:"jitter_ms,omitempty"`
	Dist      string  `json:"dist,omitempty"`
	Pct       float64 `json:"pct,omitempty"`
	Direction string  `json:"direction,omitempty"`
	DownMs    float64 `json:"down_ms,omitempty"`
	UpMs      float64 `json:"up_ms,omitempty"`
	Peer      int     `json:"peer,omitempty"`
}

// Op is one request: its endpoint, its body, and what a correct answer
// must show.
type Op struct {
	Path string
	Body []byte
	Want Want
}

// Want is what the generator knows about a correct answer, from its own
// arithmetic and never from the program under test.
type Want struct {
	// Op is "plan", "search" or "simulate".
	Op string
	// Cells are the feasible degrees a search must explore, in order.
	Cells []Degrees
	// Degrees are the degrees a plan or a simulation asked for.
	Degrees Degrees
	// Samples is the model's global batch: throughput times iteration
	// seconds must equal it.
	Samples int
	// Scenario and Events name a simulation's storm and its size; the
	// answer's fired-event count can be no larger.
	Scenario string
	Events   int
	// Batch holds one Want per batch item, in item order.
	Batch []Want
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Only plain structs of strings and numbers are marshalled here.
		panic(err)
	}
	return b
}

func clustersConfig(sh shape) wireConfig {
	return wireConfig{Clusters: sh.Clusters, Model: wireModel{Group: sh.Group}}
}

func searchOp(cfg wireConfig, sh shape) Op {
	return Op{Path: "/v1/search", Body: mustJSON(cfg), Want: Want{
		Op: "search", Cells: sh.cells(), Samples: groupBatch[sh.Group],
	}}
}

func planOp(cfg wireConfig, d Degrees) Op {
	cfg.TensorSize, cfg.PipelineSize = d.T, d.P
	return Op{Path: "/v1/plan", Body: mustJSON(cfg), Want: Want{
		Op: "plan", Degrees: d, Samples: groupBatch[cfg.Model.Group],
	}}
}

func simulateOp(cfg wireConfig, d Degrees, sc *wireScenario) Op {
	cfg.TensorSize, cfg.PipelineSize, cfg.Scenario = d.T, d.P, sc
	return Op{Path: "/v1/simulate", Body: mustJSON(cfg), Want: Want{
		Op: "simulate", Degrees: d, Samples: groupBatch[cfg.Model.Group],
		Scenario: sc.Name, Events: len(sc.Events),
	}}
}

// Stream salts: each stream drawn from one seed gets its own PCG stream.
const (
	saltColdSearch uint64 = iota + 1
	saltScenarioSim
	saltStorms
	saltHotPlans
	saltHotSims
	saltHotSearch
	saltBatches
	saltArrivals
	saltFleet
	saltColdPasses
)

// ColdSearch generates /v1/search requests over distinct shapes of 1–3
// clusters and 2–4 nodes: no two requests share a shape and group, so
// every answer is new work for the planner.
type ColdSearch struct{ shapes *shapeStream }

// NewColdSearch seeds the cold-search stream.
func NewColdSearch(seed uint64) *ColdSearch {
	return &ColdSearch{shapes: newShapeStream(seed, saltColdSearch, 2, 4, false)}
}

// Round is the number of strata: every run of Round requests visits
// each stratum once.
func (c *ColdSearch) Round() int { return c.shapes.roundSize() }

// Next returns the next search request; false once the shape space is
// exhausted.
func (c *ColdSearch) Next() (Op, bool) {
	sh, ok := c.shapes.next()
	if !ok {
		return Op{}, false
	}
	return searchOp(clustersConfig(sh), sh), true
}

// ScenarioSim generates /v1/simulate requests: a stratified shape of 2–4
// nodes, one of its feasible degree pairs, and a seeded storm of 4–12
// events over the whole event vocabulary. Storm names are numbered, so no
// two requests are alike even when a shape recurs.
//
// A simulation's cost is set almost wholly by its cluster multiset, model
// group and degrees; the storm moves it little. So those three do not
// depend on the seed: four consecutive rounds give every stratum each
// group once, and the degrees of a stratum's k-th visit at a group are
// fixed (cellFor). Every seed then asks the same mix of work, and the seed
// decides the order, each stratum's cluster order and the storms.
type ScenarioSim struct {
	shapes *shapeStream
	storms *rand.Rand
	visits map[string]int // visits per stratum and group so far
	n      int
}

// NewScenarioSim seeds the scenario-sim stream.
func NewScenarioSim(seed uint64) *ScenarioSim {
	return &ScenarioSim{
		shapes: newShapeStream(seed, saltScenarioSim, 2, 4, true),
		storms: rand.New(rand.NewPCG(seed, saltStorms)),
		visits: map[string]int{},
	}
}

// Round is four rounds of the strata: every run of Round requests visits
// each stratum once at each model group, the same work for every seed.
func (s *ScenarioSim) Round() int { return 4 * s.shapes.roundSize() }

// Next returns the next simulate request (the stream never ends).
func (s *ScenarioSim) Next() (Op, bool) {
	sh, _ := s.shapes.next()
	key := fmt.Sprintf("%s/%d", multisetKey(sh.Clusters), sh.Group)
	d := cellFor(key, s.visits[key], sh.cells())
	s.visits[key]++
	sc := storm(s.storms, fmt.Sprintf("storm-%d", s.n), sh, 4+s.storms.IntN(9))
	s.n++
	return simulateOp(clustersConfig(sh), d, sc), true
}

// cellFor picks the degrees of the visit-th simulation of a stratum at a
// group, from those alone: a hash of the stratum and group sets where its
// visits start in the cell list, and each visit moves one cell on.
func cellFor(key string, visit int, cells []Degrees) Degrees {
	h := fnv.New32a()
	h.Write([]byte(key))
	return cells[(int(h.Sum32()%uint32(len(cells)))+visit)%len(cells)]
}

// round3 keeps generated quantities short on the wire.
func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

// uniform draws from [lo, hi) rounded to three decimals.
func uniform(r *rand.Rand, lo, hi float64) float64 { return round3(lo + r.Float64()*(hi-lo)) }

// storm draws n events over the shape's nodes and clusters, each at most
// a couple of simulated seconds into the iteration. Every kind of the
// scenario vocabulary that can act on a running iteration appears;
// partition and fail_cluster need a second cluster, so a one-cluster
// shape draws the others instead. Bounded events end within a second of
// starting, and flaps cycle at most a few dozen times.
func storm(r *rand.Rand, name string, sh shape, n int) *wireScenario {
	kinds := []string{
		"degrade_nic", "fail_node", "restore_node", "background_traffic",
		"delay", "jitter", "loss", "corrupt", "flap_link", "straggler",
	}
	if len(sh.Clusters) > 1 {
		kinds = append(kinds, "partition", "fail_cluster")
	}
	nodes := sh.nodes()
	sc := &wireScenario{Name: name, Seed: 1 + r.Int64N(1<<30)}
	for range n {
		ev := wireEvent{Kind: kinds[r.IntN(len(kinds))], At: uniform(r, 0, 2)}
		until := func(lo, hi float64) float64 { return round3(ev.At + lo + r.Float64()*(hi-lo)) }
		switch ev.Kind {
		case "degrade_nic":
			ev.Node, ev.Factor = r.IntN(nodes), uniform(r, 0.2, 0.9)
			if r.IntN(2) == 0 {
				ev.Class = "Ether"
			}
		case "fail_node", "restore_node":
			ev.Node = r.IntN(nodes)
		case "background_traffic":
			ev.Src = r.IntN(nodes)
			ev.Dst = (ev.Src + 1 + r.IntN(nodes-1)) % nodes
			ev.Gbps, ev.Until = uniform(r, 5, 50), until(0.1, 1)
		case "delay":
			ev.Node, ev.DelayMs, ev.Until = r.IntN(nodes), uniform(r, 0.05, 2), until(0.1, 1)
		case "jitter":
			ev.Node, ev.JitterMs, ev.Until = r.IntN(nodes), uniform(r, 0.05, 1), until(0.1, 1)
			ev.Dist = []string{"uniform", "normal", "pareto"}[r.IntN(3)]
		case "loss", "corrupt":
			ev.Node, ev.Pct, ev.Until = r.IntN(nodes), uniform(r, 0.1, 5), until(0.1, 1)
			ev.Direction = []string{"both", "out", "in"}[r.IntN(3)]
		case "flap_link":
			ev.Node, ev.DownMs, ev.UpMs = r.IntN(nodes), uniform(r, 5, 50), uniform(r, 20, 200)
			ev.Until = until(0.1, 0.5)
		case "straggler":
			ev.Node, ev.Factor = r.IntN(nodes), uniform(r, 0.3, 0.9)
		case "partition":
			ev.Cluster = r.IntN(len(sh.Clusters))
			ev.Peer = (ev.Cluster + 1 + r.IntN(len(sh.Clusters)-1)) % len(sh.Clusters)
			ev.Until = until(0.05, 0.5)
		case "fail_cluster":
			ev.Cluster = r.IntN(len(sh.Clusters))
		}
		sc.Events = append(sc.Events, ev)
	}
	return sc
}

// Serve-mix sizes.
const (
	hotPlans    = 96
	hotSims     = 32
	hotSearches = 16
	hotBatches  = 16
	batchItems  = 8
)

// ServeMix is the serve-mix input set: hot keys every run touches many
// times, plus an endless stream of cold plans that never repeat and never
// equal a hot plan. Every request runs on shapes of 2–4 nodes, where
// tensor and pipeline degree 1 is always feasible. A cold plan asks for
// exactly that cell: a pure data-parallel plan that simulates in about a
// millisecond. A hot plan asks for a seeded cell of pipeline degree at
// most 2, so that warming a fresh daemon up takes a second or two. The
// mix exercises the serving path, and its rare fresh computations stay
// small and alike.
type ServeMix struct {
	Plans    []Op
	Sims     []Op
	Searches []Op
	Batches  []Op
	cold     *shapeStream
	pass     int // passes the cold stream has made over the shape space
	seed     uint64
}

// NewServeMix seeds the serve-mix inputs.
func NewServeMix(seed uint64) *ServeMix {
	m := &ServeMix{cold: newShapeStream(seed, saltHotPlans, 2, 4, false), seed: seed}
	// Hot plans are the first shapes of the plan stream, at a seeded
	// shallow cell; cold plans are the rest of the same stream, so the
	// two sets cannot overlap.
	planR := rand.New(rand.NewPCG(seed, saltHotPlans))
	for range hotPlans {
		sh, _ := m.cold.next()
		var shallow []Degrees
		for _, d := range sh.cells() {
			if d.P <= 2 {
				shallow = append(shallow, d)
			}
		}
		m.Plans = append(m.Plans, planOp(clustersConfig(sh), shallow[planR.IntN(len(shallow))]))
	}
	simShapes := newShapeStream(seed, saltHotSims, 2, 4, false)
	simR := rand.New(rand.NewPCG(seed, saltHotSims))
	for i := range hotSims {
		sh, _ := simShapes.next()
		cells := sh.cells()
		d := cells[simR.IntN(len(cells))]
		m.Sims = append(m.Sims, simulateOp(clustersConfig(sh), d, storm(simR, fmt.Sprintf("hot-%d", i), sh, 4+simR.IntN(9))))
	}
	// Hot searches use the env shorthand, which no other stream sends.
	type envKey struct {
		env          string
		nodes, group int
	}
	var envs []envKey
	for _, env := range []string{"InfiniBand", "RoCE", "Ethernet", "Hybrid"} {
		for nodes := 2; nodes <= 4; nodes++ {
			if env == "Hybrid" && nodes%2 != 0 {
				continue
			}
			for g := 1; g <= 4; g++ {
				envs = append(envs, envKey{env, nodes, g})
			}
		}
	}
	searchR := rand.New(rand.NewPCG(seed, saltHotSearch))
	searchR.Shuffle(len(envs), func(i, j int) { envs[i], envs[j] = envs[j], envs[i] })
	for _, e := range envs[:hotSearches] {
		sh := envShape(e.env, e.nodes, e.group)
		m.Searches = append(m.Searches, searchOp(wireConfig{Env: e.env, Nodes: e.nodes, Model: wireModel{Group: e.group}}, sh))
	}
	batchR := rand.New(rand.NewPCG(seed, saltBatches))
	for range hotBatches {
		idx := batchR.Perm(hotPlans)[:batchItems]
		sort.Ints(idx)
		var items []string
		var wants []Want
		for _, i := range idx {
			items = append(items, fmt.Sprintf(`{"op":"plan","config":%s}`, m.Plans[i].Body))
			wants = append(wants, m.Plans[i].Want)
		}
		m.Batches = append(m.Batches, Op{
			Path: "/v1/plan/batch",
			Body: []byte(`{"items":[` + strings.Join(items, ",") + `]}`),
			Want: Want{Op: "batch", Batch: wants},
		})
	}
	return m
}

// envShape is the cluster layout the env shorthand stands for: one
// cluster, or for Hybrid half InfiniBand and half RoCE nodes.
func envShape(env string, nodes, group int) shape {
	if env == "Hybrid" {
		return shape{Group: group, Clusters: []Cluster{{NIC: "InfiniBand", Nodes: nodes / 2}, {NIC: "RoCE", Nodes: nodes / 2}}}
	}
	return shape{Group: group, Clusters: []Cluster{{NIC: env, Nodes: nodes}}}
}

// Hot lists every hot request, the warm-up set.
func (m *ServeMix) Hot() []Op {
	var all []Op
	all = append(all, m.Plans...)
	all = append(all, m.Sims...)
	all = append(all, m.Searches...)
	return append(all, m.Batches...)
}

// NextCold returns a plan request no earlier call returned and no hot
// plan equals. The first pass covers the shapes the hot plans left; a
// long or fast run that uses them all starts another pass over every
// shape, with its first cluster labelled by the pass number. Such a plan
// misses the response cache like any other cold plan, though the engine
// may already hold its communicator world. So the offered mix never
// changes with run length or host speed.
func (m *ServeMix) NextCold() Op {
	sh, ok := m.cold.next()
	if !ok {
		m.pass++
		m.cold = newShapeStream(m.seed, saltColdPasses<<32|uint64(m.pass), 2, 4, false)
		sh, _ = m.cold.next()
	}
	cfg := clustersConfig(sh)
	if m.pass > 0 {
		cfg.Clusters = slices.Clone(cfg.Clusters)
		cfg.Clusters[0].Name = fmt.Sprintf("pass-%d", m.pass)
	}
	return planOp(cfg, sh.cells()[0])
}

// Arrival is one open-loop send: its offset from the phase start and
// the request. Hot is the index of the hot request in Hot(), or -1 for a
// cold plan.
type Arrival struct {
	At  float64 // seconds from the phase start
	Hot int
	Op  Op
}

// mixDeck is one deck of the serve-mix: per 500 requests, 400 hot plans,
// 50 hot simulations, 25 hot batches, 24 hot searches and one fresh cold
// plan (80%, 10%, 5%, 4.8% and 0.2%).
var mixDeck = func() []int {
	var deck []int
	for kind, n := range []int{400, 50, 25, 24, 1} {
		for range n {
			deck = append(deck, kind)
		}
	}
	return deck
}()

// Arrivals draws a Poisson arrival schedule at rate requests per second
// over the given seconds. Request kinds are dealt from shuffled decks
// (mixDeck), so every stretch of 500 requests holds the mix exactly; a
// hot plan is picked by Zipf(1.1) over the hot plans, a hot simulation,
// batch or search uniformly over its set. phase separates the schedules
// of one run's phases.
func (m *ServeMix) Arrivals(phase uint64, rate, seconds float64) []Arrival {
	r := rand.New(rand.NewPCG(m.seed, saltArrivals<<32|phase))
	zipf := rand.NewZipf(r, 1.1, 1, hotPlans-1)
	sims, batches, searches := hotPlans, hotPlans+hotSims+hotSearches, hotPlans+hotSims
	hot := m.Hot()
	deck := slices.Clone(mixDeck)
	dealt := len(deck)
	var out []Arrival
	for t := r.ExpFloat64() / rate; t < seconds; t += r.ExpFloat64() / rate {
		if dealt == len(deck) {
			r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			dealt = 0
		}
		a := Arrival{At: t}
		switch deck[dealt] {
		case 0:
			a.Hot = int(zipf.Uint64())
		case 1:
			a.Hot = sims + r.IntN(hotSims)
		case 2:
			a.Hot = batches + r.IntN(hotBatches)
		case 3:
			a.Hot = searches + r.IntN(hotSearches)
		default:
			a.Hot = -1
		}
		dealt++
		if a.Hot >= 0 {
			a.Op = hot[a.Hot]
		} else {
			a.Op = m.NextCold()
		}
		out = append(out, a)
	}
	return out
}
