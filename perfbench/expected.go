package main

import (
	"math/rand"
)

// ringKey is one (n, k) query: n ring nodes, k robots.
type ringKey struct{ n, k int }

// want is an expected verdict.
type want struct {
	impossible bool
	tier       int
}

// bandVerdicts holds the verdict of every band instance (n 3..9,
// 1 <= k < n) at the solver's default settings, derived once from
// feasibility.Instance{N: n, K: k}.Solver().Solve(). The benchmark
// compares every band answer it receives against this table.
var bandVerdicts = map[ringKey]want{
	{3, 1}: {true, 0}, {3, 2}: {true, 0},
	{4, 1}: {true, 0}, {4, 2}: {true, 0}, {4, 3}: {true, 0},
	{5, 1}: {true, 0}, {5, 2}: {true, 0}, {5, 3}: {true, 2}, {5, 4}: {true, 0},
	{6, 1}: {true, 0}, {6, 2}: {true, 0}, {6, 3}: {true, 0}, {6, 4}: {true, 0}, {6, 5}: {true, 0},
	{7, 1}: {true, 0}, {7, 2}: {true, 0}, {7, 3}: {true, 0}, {7, 4}: {true, 0}, {7, 5}: {true, 2}, {7, 6}: {true, 0},
	{8, 1}: {true, 0}, {8, 2}: {true, 0}, {8, 3}: {true, 0}, {8, 4}: {true, 0}, {8, 5}: {true, 0}, {8, 6}: {true, 0}, {8, 7}: {true, 0},
	{9, 1}: {true, 0}, {9, 2}: {true, 0}, {9, 3}: {true, 0}, {9, 4}: {true, 0}, {9, 5}: {false, 2}, {9, 6}: {true, 0}, {9, 7}: {true, 2}, {9, 8}: {true, 0},
}

// wideSettled holds the wide rings of the mix that settle within one
// wideRingBudget slice; every other wide ring must answer 202.
var wideSettled = map[ringKey]want{
	{12, 3}: {true, 0},
	{15, 3}: {true, 0},
}

// query is one /solve request of a load mix.
type query struct {
	n, k   int
	budget int // 0 = the service's default budget
}

// wideRingBudget is the budget cmd/mcsim puts on the wide tail.
const wideRingBudget = 100_000

// sampleQueryMix draws the deterministic request list for a seed. It is
// a copy of sampleQueryMix in cmd/mcsim (package main, so it cannot be
// imported): the paper's band — rings 3..9 with a uniformly random
// robot count — with a 10% tail of wide rings (n 12..16, k 3) carrying
// an explicit budget.
func sampleQueryMix(seed int64, requests int) []query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]query, requests)
	for i := range qs {
		if rng.Intn(10) == 0 {
			qs[i] = query{n: 12 + rng.Intn(5), k: 3, budget: wideRingBudget}
		} else {
			n := 3 + rng.Intn(7)
			qs[i] = query{n: n, k: 1 + rng.Intn(n-1)}
		}
	}
	return qs
}
