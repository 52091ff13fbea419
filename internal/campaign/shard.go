package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Sharding. Every cell of a campaign is an independent, deterministic
// simulation, so splitting a campaign across machines is a pure
// scheduling problem: carve the cell index space into contiguous ranges,
// run each range anywhere, and Merge reassembles the exact result slice
// a single-process run would have produced. A Shard carries the whole
// normalized Grid plus its range, which makes every shard self-contained
// (any worker that can parse a Grid can run it) and content-addressed
// (the shard ID is a pure function of the work it describes).

// shardDomain versions the shard ID computation; bump it if the ID
// inputs ever change, since persisted shard-result caches key on it.
const shardDomain = "paco-shard/v1"

// Shard is one contiguous slice [Lo, Hi) of a normalized grid's cell
// space — the unit of work the paco-serve coordinator leases to remote
// workers. Index/Count record its position in the plan that produced it.
type Shard struct {
	Grid  Grid `json:"grid"`
	Index int  `json:"index"`
	Count int  `json:"count"`
	Lo    int  `json:"lo"`
	Hi    int  `json:"hi"`
}

// Shards splits the grid's cell space into n balanced contiguous shards
// (n is trimmed to the cell count, so no shard is empty). The grid
// should be normalized first: shard IDs hash the grid, so only
// normalized grids give equal sweeps equal shard IDs. The union of the
// shards' job ranges is exactly Jobs(), in order.
func (g Grid) Shards(n int) ([]Shard, error) {
	if n <= 0 {
		return nil, fmt.Errorf("campaign: shard count must be positive, got %d", n)
	}
	size := g.Size()
	if size == 0 {
		return nil, fmt.Errorf("campaign: cannot shard an empty grid")
	}
	ranges := Ranges(size, n)
	shards := make([]Shard, len(ranges))
	for i, r := range ranges {
		shards[i] = Shard{Grid: g, Index: i, Count: len(ranges), Lo: r[0], Hi: r[1]}
	}
	return shards, nil
}

// Ranges carves [0, size) into min(n, size) balanced contiguous [lo, hi)
// ranges: sizes differ by at most one, larger ranges first, and the
// ranges partition the space in order. Grid shards and batch planning
// both split by it.
func Ranges(size, n int) [][2]int {
	if size <= 0 || n <= 0 {
		return nil
	}
	if n > size {
		n = size
	}
	base, rem := size/n, size%n
	out := make([][2]int, n)
	lo := 0
	for i := range out {
		hi := lo + base
		if i < rem {
			hi++
		}
		out[i] = [2]int{lo, hi}
		lo = hi
	}
	return out
}

// ID is the shard's content address: the SHA-256 hex digest of the
// normalized grid's JSON plus the shard coordinates, domain-separated
// from other key kinds. Two shards describing the same slice of the
// same sweep — however either was spelled — share an ID, which is what
// lets a coordinator answer a shard from a previous campaign's cached
// results instead of re-leasing it.
func (s Shard) ID() string {
	// A normalized Grid is plain data with fixed field order, so its
	// encoding/json bytes are already canonical.
	raw, err := json.Marshal(s.Grid)
	if err != nil {
		// Grids marshal unconditionally (maps of floats and slices of
		// structs); reaching here means a Grid field change broke the
		// invariant, which the shard tests pin.
		panic(fmt.Sprintf("campaign: marshaling grid for shard ID: %v", err))
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%d\x00%d\x00%d", shardDomain, raw, s.Index, s.Count, s.Lo, s.Hi)
	return hex.EncodeToString(h.Sum(nil))
}

// Run executes the shard's slice of the grid on r, batching up to
// r.BatchK cells that share a stream key, and returns its results
// re-indexed into the grid's global cell space, so merging the shards of
// a split campaign (Merge) reproduces the unsplit run's result slice —
// byte for byte, at any worker count, batch width or shard split. A
// range that is empty or outside the grid returns nil results and an
// error; otherwise every cell has a result, and the error is r.Run's.
func (s Shard) Run(ctx context.Context, r *Runner) ([]Result, error) {
	jobs := s.Grid.Jobs()
	if s.Lo < 0 || s.Hi > len(jobs) || s.Lo >= s.Hi {
		return nil, fmt.Errorf("campaign: shard range [%d,%d) outside grid's %d cells", s.Lo, s.Hi, len(jobs))
	}
	results, err := r.Run(ctx, jobs[s.Lo:s.Hi])
	for i := range results {
		results[i].Index = s.Lo + i
	}
	return results, err
}

// FirstError returns the first failed result (by slice order) as the
// campaign's representative error, naming the failing job, or nil when
// every result completed. Runner.Run applies it to a finished campaign;
// the coordinator applies it to merged shard results so a distributed
// campaign fails exactly as the same campaign run locally would.
func FirstError(results []Result) error {
	for i := range results {
		if results[i].Err != "" {
			return fmt.Errorf("campaign: job %d (%s): %s", results[i].Index, results[i].JobID, results[i].Err)
		}
	}
	return nil
}
