package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"

	"s2"
	"s2/internal/synth"
)

// fatTree8 is synth.FatTree{K: 8, WithACL: true}: 80 switches, ECMP-64
// eBGP, one announced /24 per edge switch and a planted ACL blackhole.
func fatTree8() (map[string]string, error) {
	return synth.FatTree(synth.FatTreeOptions{K: 8, WithACL: true})
}

// dcnDefaults is the DCN generator at cmd/dcngen's defaults: 2 clusters of
// 4 TORs, fabric and core width 2, deep clusters, aggregation, 5 dialects.
func dcnDefaults() (map[string]string, error) {
	return synth.DCN(synth.DCNOptions{
		Clusters: 2, TORsPerCluster: 4, FabricWidth: 2, CoreWidth: 2,
		DeepClusters: true, WithAggregation: true, VLANsPerTOR: 1,
	})
}

var networkLine = regexp.MustCompile(`(?m)^ network (\d+\.\d+\.\d+\.\d+/24)\n`)

// edge is a switch that originates a /24 with a `network` line.
type edge struct {
	name   string
	prefix string
}

// edges lists the switches announcing a /24, sorted by name.
func edges(texts map[string]string) []edge {
	var out []edge
	for name, text := range texts {
		if m := networkLine.FindStringSubmatch(text); m != nil {
			out = append(out, edge{name: name, prefix: m[1]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// withdrawn returns the target's config with its /24 `network` line removed.
func withdrawn(texts map[string]string, target edge) string {
	return strings.Replace(texts[target.name], " network "+target.prefix+"\n", "", 1)
}

// inputs are everything a workload derives from its seed. The program sees
// only the generated configs, queries and deltas.
type inputs struct {
	texts        map[string]string
	edges        []edge
	queries      []s2.Query // a per-edge reachability query for every edge in seeded order, a source-restricted pair and a TCP/80 sweep
	perEdge      int        // queries[:perEdge] are the per-edge queries
	mix          []int      // the serving read mix: mixEdges per-edge queries, the pair and the sweep
	target       edge       // the switch whose /24 the writes withdraw and re-announce
	verifierSeed int64
}

// mixEdges is how many per-edge queries the serving read mix holds.
const mixEdges = 8

func newInputs(texts map[string]string, seed int64) (*inputs, error) {
	es := edges(texts)
	if len(es) < 2 {
		return nil, fmt.Errorf("need at least 2 announcing switches, found %d", len(es))
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{texts: texts, edges: es, verifierSeed: 1 + rng.Int63n(1<<20)}
	picked := rng.Perm(len(es))
	for _, i := range picked {
		e := es[i]
		in.queries = append(in.queries, s2.Query{DstPrefix: e.prefix, Dests: []string{e.name}})
	}
	in.perEdge = len(in.queries)
	a, b := es[picked[0]], es[picked[1]]
	in.queries = append(in.queries,
		s2.Query{SrcPrefix: a.prefix, DstPrefix: b.prefix, Sources: []string{a.name}, Dests: []string{b.name}},
		s2.Query{Protocol: 6, DstPort: 80, Dests: names(es)},
	)
	for i := 0; i < min(mixEdges, in.perEdge); i++ {
		in.mix = append(in.mix, i)
	}
	in.mix = append(in.mix, in.perEdge, in.perEdge+1)
	in.target = es[rng.Intn(len(es))]
	return in, nil
}

func names(es []edge) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.name
	}
	return out
}

// state returns the config set with the target's /24 announced or withdrawn.
func (in *inputs) state(announced bool) map[string]string {
	if announced {
		return in.texts
	}
	out := make(map[string]string, len(in.texts))
	for k, v := range in.texts {
		out[k] = v
	}
	out[in.target.name] = withdrawn(in.texts, in.target)
	return out
}
