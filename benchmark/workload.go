package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"

	"wise/internal/gen"
	"wise/internal/matrix"
)

const (
	// The closed loops have one caller. On the 2-vCPU reference host that
	// leaves a core for the load generator, the server's garbage collector
	// and the second worker of its parallel kernels. With two callers both
	// cores stay busy and the numbers measure the scheduler: the spread of
	// ingest-mixed's p50 over five seeds was 12% against 4% with one.
	closedClients = 1
	// The paced loop sends over two connections, so an op due while another
	// is in flight goes out on time instead of waiting in the generator.
	pacedSenders = 2

	warmupOps      = 64 // ops run after set-up and before measuring, counted in setup_s
	ringSize       = 4  // an ingest read addresses one of the 4 newest uploads
	readsPerUpload = 3  // ingest streams repeat one upload followed by three reads
	digestOps      = 1024
)

// opKind is the endpoint an op calls.
type opKind int

const (
	opPredict opKind = iota // POST /predict with a MatrixMarket body
	opUpload                // POST /matrix with a MatrixMarket body
	opSpMV                  // POST /spmv by fingerprint
)

func (k opKind) String() string { return [...]string{"predict", "upload", "spmv"}[k] }

// op is one scheduled request. item indexes the workload's matrix pool.
// nonce is an ingest upload's number within its stream; it is written into
// the body as a comment so every upload is a body the server has never
// seen. back picks an ingest read's target: the stream's back-th newest
// upload.
type op struct {
	kind  opKind
	item  int
	nonce int
	back  int
}

// mix is the op pattern of a workload's streams.
type mix int

const (
	mixPredict mix = iota // stateless /predict over the pool
	mixWarm               // /spmv round-robin over uploaded matrices
	mixIngest             // one never-seen upload, then three reads of the newest uploads
)

// workload is one traffic mix against wise-serve. The why of each lives in
// BENCHMARK.json.
type workload struct {
	name string
	mix  mix
	// rate > 0 makes an open loop: ops are due at a fixed rate and sent over
	// clients connections. Otherwise clients closed-loop callers each send
	// their next op when the previous answer arrives.
	rate    float64
	clients int
	pool    []matrixSpec
	// uploadPool uploads every pool matrix with POST /matrix during set-up.
	uploadPool bool
	// iterations is the chain length of /spmv ops and of the in-process
	// reference execution each pool matrix is checked against.
	iterations   int
	sessionBytes int64  // -session-bytes for the server and the replay store; 0 keeps the default
	mainOp       opKind // the op type serve.unattributed_ms_p50 is reported for
}

func (w *workload) open() bool { return w.rate > 0 }

// serverFlags are the wise-serve flags of the workload. Reload polling is
// off so the model file is read exactly once.
func (w *workload) serverFlags() []string {
	flags := []string{"-reload-poll", "-1s"}
	if w.sessionBytes > 0 {
		flags = append(flags, "-session-bytes", fmt.Sprint(w.sessionBytes))
	}
	return flags
}

// matrixSpec is one pool matrix: a generator family from internal/gen, a
// row count, and a family parameter — average nonzeros per row for rmat and
// rgg, the number of diagonals for banded, the largest row degree for
// powerlaw. The stencils fix their own degree.
type matrixSpec struct {
	family string
	rows   int
	param  float64
}

// families are the eight structures the cold pool, which ingest-mixed
// shares, crosses with row counts: skewed graphs, geometric graphs, PDE stencils, a band, and a
// power law, so selections span several method families.
var families = []matrixSpec{
	{family: "rmat", param: 8}, {family: "rmat", param: 16},
	{family: "rgg", param: 8}, {family: "rgg", param: 16},
	{family: "stencil5"}, {family: "stencil9"},
	{family: "banded", param: 7}, {family: "powerlaw", param: 256},
}

// grid crosses every family with n row counts spaced evenly in log2 from
// 2^lo to 2^hi. A fixed grid keeps the cost of a pool the same for every
// seed; the seed only changes where the nonzeros fall.
func grid(lo, hi float64, n int) []matrixSpec {
	var out []matrixSpec
	for k := 0; k < n; k++ {
		rows := int(math.Round(math.Pow(2, lo+(hi-lo)*float64(k)/float64(n-1))))
		for _, f := range families {
			f.rows = rows
			out = append(out, f)
		}
	}
	return out
}

// warmPool is the warm-spmv pool: 16 matrices of 2^13 to 2^15 rows. The
// first eight hold more than 4 MiB of CSR arrays (12 bytes per nonzero, 8
// per row), beyond the 2 MiB per-core L2 of the reference host; the other
// eight fit in it, and all sixteen together fit its 105 MiB L3.
func warmPool() []matrixSpec {
	const r13, r14, r15 = 1 << 13, 1 << 14, 1 << 15
	return []matrixSpec{
		{"rmat", r15, 16}, {"rgg", r15, 16}, {"banded", r15, 15}, {"rmat", r15, 12}, {"rgg", r15, 12},
		{"rmat", r14, 32}, {"rgg", r14, 32}, {"banded", r14, 31},
		{"rmat", r13, 8}, {"rgg", r13, 8}, {"banded", r13, 7}, {"stencil5", r13, 0},
		{"stencil9", r13, 0}, {"powerlaw", r13, 256}, {"rmat", r13, 16}, {"rgg", r13, 16},
	}
}

// workloads returns the benchmark's workloads in their canonical order.
func workloads() []*workload {
	cold := grid(11, 13, 6) // 48 bodies
	return []*workload{
		{name: "cold-predict", mix: mixPredict, clients: closedClients, pool: cold, iterations: 1, mainOp: opPredict},
		// 50 req/s is about half of what the one cold-predict caller
		// completes on the reference host, and 1,000 ops in a 20 s run.
		{name: "cold-predict-paced", mix: mixPredict, rate: 50, clients: pacedSenders, pool: cold, iterations: 1, mainOp: opPredict},
		{name: "warm-spmv", mix: mixWarm, clients: closedClients, pool: warmPool(), uploadPool: true, iterations: 8, mainOp: opSpMV},
		// Reads address the 4 newest uploads. The 32 MiB budget holds 8
		// sessions of the largest pool matrix (3.8 MB charged each), more
		// than the read targets plus the upload in flight, so the LRU never
		// evicts a target; it does not hold the stream, so every upload
		// evicts once the store is full.
		{name: "ingest-mixed", mix: mixIngest, clients: closedClients, pool: cold, iterations: 4,
			sessionBytes: 32 << 20, mainOp: opSpMV},
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// seedFor derives an independent random source seed for one purpose
// ("pool", "stream") and index within a workload and run seed.
func seedFor(w *workload, seed int64, purpose string, i int) int64 {
	h := fnv.New64a()
	_, _ = fmt.Fprintf(h, "%s/%d/%s/%d", w.name, seed, purpose, i) // hash writes never fail
	return int64(h.Sum64())
}

// generate builds the matrix of one pool entry.
func (ms matrixSpec) generate(rng *rand.Rand) *matrix.CSR {
	switch ms.family {
	case "rmat":
		m := gen.RMATRows(rng, ms.rows, ms.param, gen.MedSkew)
		// Hub rows capped at 0.2% of the nonzeros, as the training corpus does.
		return gen.CapRowDegree(rng, m, max(32, m.NNZ()/500))
	case "rgg":
		return gen.RGG(rng, ms.rows, ms.param)
	case "stencil5", "stencil9":
		g := int(math.Round(math.Sqrt(float64(ms.rows))))
		return gen.Stencil2D(g, g, ms.family == "stencil9")
	case "banded":
		half := int(ms.param) / 2
		offsets := make([]int, 0, 2*half+1)
		for o := -half; o <= half; o++ {
			offsets = append(offsets, o)
		}
		return gen.Banded(rng, ms.rows, offsets)
	case "powerlaw":
		return gen.PowerLawRows(rng, ms.rows, 2.1, int(ms.param))
	}
	panic(fmt.Sprintf("benchmark: unknown matrix family %q", ms.family))
}

// bodies generates the MatrixMarket request bodies of the workload's pool
// for a seed.
func (w *workload) bodies(seed int64) ([][]byte, error) {
	out := make([][]byte, len(w.pool))
	for i, ms := range w.pool {
		m := ms.generate(rand.New(rand.NewSource(seedFor(w, seed, "pool", i))))
		var buf bytes.Buffer
		if err := matrix.WriteMatrixMarket(&buf, m); err != nil {
			return nil, fmt.Errorf("benchmark: serializing %s pool matrix %d: %w", w.name, i, err)
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// nonceBody returns body with a comment line after the MatrixMarket header
// that makes it unique to (seed, stream, upload number): the same matrix,
// a new fingerprint.
func nonceBody(body []byte, seed int64, stream, n int) []byte {
	nl := bytes.IndexByte(body, '\n') + 1
	out := make([]byte, 0, len(body)+64)
	out = append(out, body[:nl]...)
	out = fmt.Appendf(out, "%% benchmark nonce %d-%d-%d\n", seed, stream, n)
	return append(out, body[nl:]...)
}

// stream is one deterministic op sequence, extended on demand. Closed loops
// give each client its own stream; the open loop sends one shared stream.
type stream struct {
	w       *workload
	id      int
	rng     *rand.Rand
	perm    []int // remaining pool indices of the current lap
	uploads int

	mu  sync.Mutex
	ops []op // guarded by mu
}

func newStream(w *workload, seed int64, id int) *stream {
	return &stream{w: w, id: id, rng: rand.New(rand.NewSource(seedFor(w, seed, "stream", id)))}
}

// at returns the stream's i-th op.
func (s *stream) at(i int) op {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ops) <= i {
		s.ops = append(s.ops, s.next(len(s.ops)))
	}
	return s.ops[i]
}

// draw returns the next pool index of a random permutation, starting a new
// lap when one is used up, so every matrix is sent equally often.
func (s *stream) draw() int {
	if len(s.perm) == 0 {
		s.perm = s.rng.Perm(len(s.w.pool))
	}
	v := s.perm[0]
	s.perm = s.perm[1:]
	return v
}

func (s *stream) next(i int) op {
	switch s.w.mix {
	case mixWarm:
		return op{kind: opSpMV, item: i % len(s.w.pool)}
	case mixIngest:
		if i%(1+readsPerUpload) == 0 {
			s.uploads++
			return op{kind: opUpload, item: s.draw(), nonce: s.uploads - 1}
		}
		return op{kind: opSpMV, back: s.rng.Intn(min(ringSize, s.uploads))}
	default:
		return op{kind: opPredict, item: s.draw()}
	}
}

// schedule is a workload's ops for one seed.
type schedule struct {
	w       *workload
	streams []*stream
}

func newSchedule(w *workload, seed int64) *schedule {
	n := w.clients
	if w.open() {
		n = 1
	}
	s := &schedule{w: w}
	for id := 0; id < n; id++ {
		s.streams = append(s.streams, newStream(w, seed, id))
	}
	return s
}

// closed returns client c's i-th op in closed-loop order. An open-loop
// workload deals its shared stream to the clients in turn, so closed
// phases (warm-up, replay) run the same ops the open loop would.
func (s *schedule) closed(c, i int) op {
	if s.w.open() {
		return s.streams[0].at(i*s.w.clients + c)
	}
	return s.streams[c].at(i)
}

// shared returns the j-th op of the open loop's shared stream.
func (s *schedule) shared(j int) op { return s.streams[0].at(j) }

// digest is the sha256 over everything that defines a run's inputs: the
// workload's parameters, the model, the generated bodies, and the first
// digestOps ops of every client's schedule.
func digest(w *workload, seed int64, model []byte, bodies [][]byte) string {
	var text bytes.Buffer
	fmt.Fprintf(&text, "benchmark v1 %s rate=%g clients=%d iterations=%d upload=%v flags=%q\n",
		w.name, w.rate, w.clients, w.iterations, w.uploadPool, w.serverFlags())
	sch := newSchedule(w, seed)
	for c := 0; c < w.clients; c++ {
		for i := 0; i < digestOps; i++ {
			o := sch.closed(c, i)
			fmt.Fprintf(&text, "%d %d %d %d\n", o.kind, o.item, o.nonce, o.back)
		}
	}
	h := sha256.New()
	_, _ = h.Write(text.Bytes()) // hash writes never fail
	_, _ = h.Write(model)
	for _, b := range bodies {
		_, _ = h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// seed1Digests are the input digests of seed 1. A seed-1 run whose digest
// differs fails: the generators, the schedule or the model fixture changed,
// so its numbers no longer compare with earlier ones.
var seed1Digests = map[string]string{
	"cold-predict":       "acf0df12eb0ed8a07e94b5e63b01b39f32e2b524f35b519a5ea44471f7d11a9a",
	"cold-predict-paced": "eb80684256f491731bf5df950de5cbf340d4b9fd44652ed375a70c5a092ce2bf",
	"warm-spmv":          "0e880dad01d64ce3c150fe5b55813c20ec3d0bbd04085f70fc2679b6493f0575",
	"ingest-mixed":       "12f349ac1383e34fae362ab735fd1d62f30bb47316502bd2dcd58ea6131ada30",
}
