// Delta re-verification: the controller keeps the converged per-worker
// RIB/BDD state resident between runs and, on a config delta, re-runs the
// pipeline only where the change can matter. The planner diffs per-device
// config fingerprints (internal/config), classifies the delta, and picks
// the cheapest sound path:
//
//	none   — nothing semantic changed (comments, whitespace): adopt the new
//	         texts and bump the epoch.
//	dp     — only data-plane filters changed (ACLs, descriptions): ship the
//	         new device models to their owners and recompute FIBs/predicates;
//	         the control plane stays resident.
//	shards — origination or routing policy changed: ship models, purge
//	         globally-retired prefixes, rebuild the prefix shards from the
//	         new snapshot, and re-run only the dirty shards' dependency
//	         closure. Clean shards keep their per-prefix resident results —
//	         sound because every shard round is cold and self-contained.
//	full   — topology-class changes (interfaces, OSPF, BGP sessions, device
//	         add/remove/rename), or no resident state to build on: the
//	         ordinary re-partition + full pipeline.
package core

import (
	"fmt"
	"sort"
	"time"

	"s2/internal/config"
	"s2/internal/obs"
	"s2/internal/route"
	"s2/internal/shard"
	"s2/internal/sidecar"
	"s2/internal/topology"
)

// DeltaResult reports what one ApplyDelta run did.
type DeltaResult struct {
	// Class is the most invasive per-device change class in the delta.
	Class config.DeltaClass
	// Mode is the re-verification path taken: noop, dp, shards, or full.
	Mode string
	// Changed maps modified devices to their change class; Added and
	// Removed list devices that appeared or disappeared (renames are a
	// remove plus an add).
	Changed map[string]config.DeltaClass
	Added   []string
	Removed []string
	// DirtyShards is how many shard rounds actually ran (including §7
	// merge recomputes); TotalShards is the shard count of the new state.
	DirtyShards int
	TotalShards int
	// DirtyShardIDs lists the shard rounds that ran, in execution order (a
	// §7 merge recompute repeats the absorbing shard's id) — the audit
	// trail for every skipped shard's soundness claim. Empty for noop and
	// dp deltas; all shards for full.
	DirtyShardIDs []int
	// Stages maps pipeline stage names (partition+setup, cp-ospf, cp-bgp,
	// dp-compute, dp-forward) to the wall time this delta spent in them.
	Stages map[string]time.Duration
	// Epoch is the verified-state epoch after the delta.
	Epoch uint64
	// Warnings are FIB resolution warnings from the data-plane compute.
	Warnings []string
}

// ApplyDelta applies per-device config changes to the resident verified
// state: set maps device names to replacement config texts (a text whose
// parsed hostname differs renames the device), remove lists devices to
// delete. On return the controller's state is converged for the new
// configs, exactly as if they had been verified from cold, and the epoch
// has advanced.
func (c *Controller) ApplyDelta(set map[string]string, remove []string) (*DeltaResult, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("core: controller is closed")
	}
	newTexts := make(map[string]string, len(c.texts))
	for k, v := range c.texts {
		newTexts[k] = v
	}
	for _, name := range remove {
		if _, ok := newTexts[name]; !ok {
			return nil, fmt.Errorf("core: delta removes unknown device %q", name)
		}
		delete(newTexts, name)
	}
	for key, text := range set {
		one, err := config.ParseTexts(map[string]string{key + ".cfg": text})
		if err != nil {
			return nil, fmt.Errorf("core: delta config %q: %w", key, err)
		}
		names := one.DeviceNames()
		if len(names) != 1 {
			return nil, fmt.Errorf("core: delta config %q defines %d devices, want 1", key, len(names))
		}
		if names[0] != key {
			delete(newTexts, key) // rename: the parsed hostname wins
		}
		newTexts[names[0]] = text
	}
	files := make(map[string]string, len(newTexts))
	for name, text := range newTexts {
		files[name+".cfg"] = text
	}
	newSnap, err := config.ParseTexts(files)
	if err != nil {
		return nil, err
	}
	diff := config.DiffSnapshots(c.snap, newSnap)
	res := &DeltaResult{
		Class:   diff.Class(),
		Changed: diff.Changed,
		Added:   diff.Added,
		Removed: diff.Removed,
	}
	c.cpWanted, c.dpWanted = true, true
	end := c.startSpan("delta",
		obs.Attr{Key: "class", Value: diff.Class().String()},
		obs.Int("changed", len(diff.Changed)),
		obs.Int("added", len(diff.Added)),
		obs.Int("removed", len(diff.Removed)))
	defer end()
	c.flight.Record("delta", "class=%s changed=%d added=%d removed=%d",
		diff.Class(), len(diff.Changed), len(diff.Added), len(diff.Removed))
	c.log.Info("delta classified",
		obs.FStr("class", diff.Class().String()),
		obs.FInt("changed", len(diff.Changed)),
		obs.FInt("added", len(diff.Added)),
		obs.FInt("removed", len(diff.Removed)))
	started := time.Now()
	phasesBefore := len(c.timer.Phases())
	err = c.timer.Time("delta", func() error {
		return c.recoverable(func() error { return c.applyDeltaBody(newSnap, newTexts, diff, res) })
	})
	// Attribute per-stage wall time from the phase timer: every stage a
	// recoverable attempt ran landed between the two snapshots. Recovery
	// re-runs accumulate into the same stage — the audit records what this
	// delta actually cost, not just the successful attempt.
	res.Stages = map[string]time.Duration{}
	for _, p := range c.timer.Phases()[phasesBefore:] {
		if p.Name != "delta" {
			res.Stages[p.Name] += p.Duration
		}
	}
	if err != nil {
		c.log.Error("delta failed",
			obs.FStr("class", diff.Class().String()),
			obs.FStr("mode", res.Mode),
			obs.FDur("took", time.Since(started)),
			obs.FErr(err))
		return nil, err
	}
	res.Epoch = c.epoch.Load()
	c.flight.Record("delta", "done mode=%s dirty=%d/%d epoch=%d",
		res.Mode, res.DirtyShards, res.TotalShards, res.Epoch)
	c.log.Info("delta applied",
		obs.FStr("class", res.Class.String()),
		obs.FStr("mode", res.Mode),
		obs.FInt("dirty_shards", res.DirtyShards),
		obs.FInt("total_shards", res.TotalShards),
		obs.FUint64("epoch", res.Epoch),
		obs.FDur("took", time.Since(started)))
	c.recordDeltaMetrics(res)
	return res, nil
}

// applyDeltaBody is one recoverable attempt: a repair re-Setups the workers
// (wiping resident results), after which Resident() is false and the
// re-entry falls through to the full path.
func (c *Controller) applyDeltaBody(newSnap *config.Snapshot, newTexts map[string]string, diff *config.SnapshotDiff, res *DeltaResult) error {
	res.Mode, res.DirtyShards, res.TotalShards, res.Warnings = "", 0, 0, nil
	res.DirtyShardIDs = nil
	if diff.Empty() {
		res.Mode = "noop"
		if err := c.adopt(newSnap, newTexts); err != nil {
			return err
		}
		c.bumpEpoch() // an accepted no-op is still a new verified epoch
		return nil
	}
	class := diff.Class()
	if !c.Resident() || class == config.DeltaTopo {
		res.Mode = "full"
		return c.deltaFull(newSnap, newTexts, res)
	}
	if class == config.DeltaDP {
		res.Mode = "dp"
		return c.deltaDP(newSnap, newTexts, diff, res)
	}
	res.Mode = "shards"
	return c.deltaShards(newSnap, newTexts, diff, res, class)
}

// adopt swaps in the new snapshot/texts and rebuilds the derived topology.
func (c *Controller) adopt(newSnap *config.Snapshot, newTexts map[string]string) error {
	net, err := topology.Build(newSnap)
	if err != nil {
		return err
	}
	c.snap, c.net, c.texts = newSnap, net, newTexts
	return nil
}

// deltaFull runs the ordinary cold pipeline against the new snapshot:
// re-partition, re-Setup every worker, control plane, data plane.
func (c *Controller) deltaFull(newSnap *config.Snapshot, newTexts map[string]string, res *DeltaResult) error {
	if err := c.adopt(newSnap, newTexts); err != nil {
		return err
	}
	if err := c.setup(); err != nil {
		return err
	}
	if err := c.runControlPlane(); err != nil {
		return err
	}
	warnings, err := c.computeDataPlane()
	if err != nil {
		return err
	}
	res.Warnings = warnings
	res.TotalShards = len(c.shards)
	res.DirtyShards = len(c.shards)
	res.DirtyShardIDs = make([]int, len(c.shards))
	for i := range res.DirtyShardIDs {
		res.DirtyShardIDs[i] = i
	}
	return nil
}

// deltaDP handles pure data-plane deltas (ACLs, descriptions): update the
// owners' device models and recompute FIBs/predicates from the resident
// RIBs. Zero shard rounds re-run.
func (c *Controller) deltaDP(newSnap *config.Snapshot, newTexts map[string]string, diff *config.SnapshotDiff, res *DeltaResult) error {
	if err := c.adopt(newSnap, newTexts); err != nil {
		return err
	}
	if err := c.pushDelta(changedNames(diff), nil); err != nil {
		c.dpDone = false
		return err
	}
	res.TotalShards = len(c.shards)
	c.dpDone = false
	warnings, err := c.computeDataPlane()
	if err != nil {
		return err
	}
	res.Warnings = warnings
	return nil
}

// deltaShards handles origination and policy deltas with the control plane
// resident: update device models, purge retired prefixes, rebuild the
// shards from the new snapshot, and re-run only the dirty ones.
func (c *Controller) deltaShards(newSnap *config.Snapshot, newTexts map[string]string, diff *config.SnapshotDiff, res *DeltaResult, class config.DeltaClass) error {
	oldSnap := c.snap
	oldGlobal := shard.CollectBGPPrefixes(oldSnap)
	dpdgOpts := shard.DPDGOptions{IgnoreConditional: c.opts.IgnoreConditionalDeps}

	// Origination deltas dirty only the changed devices' owned prefixes,
	// expanded through the dependency closure of BOTH the old and the new
	// prefix dependency graphs — a prefix whose component splits or merges
	// is recomputed either way.
	var affected map[route.Prefix]bool
	if class == config.DeltaOrig {
		affected = map[route.Prefix]bool{}
		for name, cl := range diff.Changed {
			if cl != config.DeltaOrig {
				continue
			}
			for _, p := range originatedBy(oldSnap, name) {
				affected[p] = true
			}
			for _, p := range originatedBy(newSnap, name) {
				affected[p] = true
			}
		}
		expandComponents(affected, shard.BuildDPDGOpts(oldSnap, dpdgOpts).Components())
		expandComponents(affected, shard.BuildDPDGOpts(newSnap, dpdgOpts).Components())
	}

	if err := c.adopt(newSnap, newTexts); err != nil {
		return err
	}

	// Prefixes no longer originated anywhere must be purged from every
	// worker's resident RIBs: no new shard round will overwrite them.
	newGlobal := shard.CollectBGPPrefixes(newSnap)
	inNew := make(map[route.Prefix]bool, len(newGlobal))
	for _, p := range newGlobal {
		inNew[p] = true
	}
	var purge []route.Prefix
	for _, p := range oldGlobal {
		if !inNew[p] {
			purge = append(purge, p)
		}
	}

	if err := c.pushDelta(changedNames(diff), purge); err != nil {
		// Models and purges may be half-applied; force a clean re-Setup
		// before anything else trusts the resident state.
		c.setupDone, c.cpDone, c.dpDone = false, false, false
		return err
	}

	// Rebuild the shards from the new snapshot. Resident results are keyed
	// per prefix, so results for prefixes that land in clean new shards
	// remain valid regardless of how shard boundaries moved.
	var shards []*shard.Shard
	if c.opts.Shards > 1 {
		var err error
		shards, err = shard.MakeShards(shard.BuildDPDGOpts(newSnap, dpdgOpts), c.opts.Shards, c.opts.Seed)
		if err != nil {
			return err
		}
	} else {
		shards = []*shard.Shard{nil}
	}
	c.shards = shards

	dirty := make([]bool, len(shards))
	for i, sh := range shards {
		switch {
		case class == config.DeltaPolicy, sh == nil:
			// Policy changes can reroute any prefix a route-map or filter
			// touches; dirty everything rather than model policy reach.
			dirty[i] = true
		default:
			for p := range affected {
				if sh.Contains(p) {
					dirty[i] = true
					break
				}
			}
		}
	}
	nDirty := 0
	for _, d := range dirty {
		if d {
			nDirty++
		}
	}
	res.TotalShards = len(shards)
	res.DirtyShards = nDirty
	c.flight.Record("delta", "dirty shards %d/%d, purging %d prefixes", nDirty, len(shards), len(purge))

	err := c.timer.Time("cp-bgp", func() error {
		return c.stage("cp-bgp", func() error {
			runs, err := c.runDirtyShards(dirty)
			res.DirtyShardIDs = runs
			if len(runs) > res.DirtyShards {
				res.DirtyShards = len(runs) // §7 merges pulled in clean shards
			}
			return err
		})
	})
	if err != nil {
		c.cpDone = false // a failed shard round leaves partial CP state
		return err
	}
	c.dpDone = false
	warnings, err := c.computeDataPlane()
	if err != nil {
		return err
	}
	res.Warnings = warnings
	return nil
}

// pushDelta ships changed device configs to their owning workers and the
// purge list to every worker; workers with nothing to do are skipped.
func (c *Controller) pushDelta(changed []string, purge []route.Prefix) error {
	perWorker := map[int]map[string]string{}
	for _, name := range changed {
		id, ok := c.assignment.Of[name]
		if !ok {
			return fmt.Errorf("core: delta device %q not in the current partition", name)
		}
		if perWorker[id] == nil {
			perWorker[id] = map[string]string{}
		}
		perWorker[id][name] = c.texts[name]
	}
	return c.each(func(id int, w sidecar.WorkerAPI) error {
		req := sidecar.DeltaRequest{Configs: perWorker[id], PurgePrefixes: purge}
		if len(req.Configs) == 0 && len(req.PurgePrefixes) == 0 {
			return nil
		}
		_, err := w.ApplyDelta(req)
		return err
	})
}

func (c *Controller) recordDeltaMetrics(res *DeltaResult) {
	if c.reg == nil {
		return
	}
	c.reg.Counter(MetricDeltas, "Config deltas applied, by re-verification mode.", "mode").
		Inc(res.Mode)
	c.reg.Counter(MetricDeltaPlans, "Delta re-verification plans chosen, by change class.", "class").
		Inc(res.Class.String())
	c.reg.Gauge(MetricDeltaDirty, "Shard rounds re-run by the last delta.").
		Set(float64(res.DirtyShards))
	c.reg.Gauge(MetricDeltaTotal, "Total prefix shards at the last delta.").
		Set(float64(res.TotalShards))
}

// originatedBy returns the prefixes a device originates into BGP (network
// statements plus aggregates) — the origination surface the Orig
// fingerprint class covers.
func originatedBy(snap *config.Snapshot, name string) []route.Prefix {
	dev := snap.Devices[name]
	if dev == nil || dev.BGP == nil {
		return nil
	}
	out := append([]route.Prefix(nil), dev.BGP.Networks...)
	for _, a := range dev.BGP.Aggregates {
		out = append(out, a.Prefix)
	}
	return out
}

// expandComponents closes the affected set over dependency components: a
// component with one affected prefix is affected whole.
func expandComponents(affected map[route.Prefix]bool, comps [][]route.Prefix) {
	for _, comp := range comps {
		hit := false
		for _, p := range comp {
			if affected[p] {
				hit = true
				break
			}
		}
		if hit {
			for _, p := range comp {
				affected[p] = true
			}
		}
	}
}

func changedNames(diff *config.SnapshotDiff) []string {
	names := make([]string, 0, len(diff.Changed))
	for name := range diff.Changed {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
