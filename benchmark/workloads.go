package main

type kind int

const (
	kindLib kind = iota
	kindServeRead
	kindServeWrite
)

// spec is one workload's shape. What steadies a best-of-P number is
// P and the length of a request, not Q: a sample is clean only if the
// host left the whole request alone, and this host spends spells of a
// quarter of an hour switching, several times a second, between full
// speed and a little over half of it. Replaying one long run in
// windows of k passes showed p95_us moving 12–34 % between windows at
// k = 8–10, 4–19 % at k = 20 and 2–8 % at k = 30, on every workload.
// So the lib corpora hold 20 000 vectors where the issue had 100 000:
// a query costs a fifth (0.45 and 0.85 ms), 20 s of Q = 400 fit 40–100
// passes where n = 100 000 left room for 9–22 in 12 s (p95_us spread
// between runs 1.6 % in a quiet hour, 14 % in a noisy one), and the
// phase split the two workloads exist for is the same or sharper. The
// serve lists are half the issue's; halving them again made the serve
// numbers noisier.
type spec struct {
	name    string
	kind    kind
	dataset string // datagen generator
	n       int    // corpus size
	tau     int
	flips   int // bits flipped to turn a corpus vector into a query
	// requests is Q, the length of the replayed list. serve_write
	// derives it: 6 operations per churned vector.
	requests int
	distinct int // serve_read: distinct queries among the requests
	churn    int // serve_write: W, stored vectors deleted and re-inserted per pass
	updates  int // serve_write: acknowledged updates in the WAL every start replays
	setups   int // how many times set-up (open the index, start the server) is repeated; setup_s is the best
	shards   int
}

// workloadNames lists every workload the runner knows. The first
// gatedWorkloads of them are the regression gate (BENCHMARK.json); the
// serve pair is diagnostic: every request of theirs crosses the kernel
// and a second process, and on this host a noisy spell moves their
// best-of-P medians by 26–45 % between two sets of identical code
// (the lib pair: 3–9 %), more than any bound the driver accepts.
var workloadNames = []string{"lib_selective", "lib_wide", "serve_read", "serve_write"}

const gatedWorkloads = 2

var specs = map[string]spec{
	"lib_selective": {
		name: "lib_selective", kind: kindLib,
		dataset: "uqvideo", n: 20000, tau: 8, flips: 4, requests: 400, setups: 51,
	},
	"lib_wide": {
		name: "lib_wide", kind: kindLib,
		dataset: "sift", n: 20000, tau: 16, flips: 4, requests: 400, setups: 51,
	},
	"serve_read": {
		name: "serve_read", kind: kindServeRead,
		dataset: "uqvideo", n: 100000, tau: 16, flips: 4, requests: 1000, distinct: 200, setups: 11, shards: 2,
	},
	"serve_write": {
		name: "serve_write", kind: kindServeWrite,
		dataset: "sift", n: 50000, tau: 8, flips: 3, churn: 100, updates: 1000, setups: 11, shards: 2,
	},
}
