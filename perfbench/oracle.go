package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"s2"
	"s2/internal/baseline"
	"s2/internal/config"
	"s2/internal/dataplane"
	"s2/internal/route"
)

// answer is the comparable form of a verification answer: sorted node
// lists and sorted violation records.
type answer struct {
	Reached    []string `json:"reached,omitempty"`
	Unreached  []string `json:"unreached,omitempty"`
	Violations []string `json:"violations,omitempty"`
}

func (a answer) equal(b answer) bool {
	return strings.Join(a.Reached, ",") == strings.Join(b.Reached, ",") &&
		strings.Join(a.Unreached, ",") == strings.Join(b.Unreached, ",") &&
		strings.Join(a.Violations, "\n") == strings.Join(b.Violations, "\n")
}

func violationKey(kind, source, node, detail, dst string) string {
	return strings.Join([]string{kind, source, node, detail, dst}, "|")
}

func newAnswer(reached, unreached []string, vios []s2.Violation) answer {
	a := answer{Reached: sortedStrings(reached), Unreached: sortedStrings(unreached)}
	for _, v := range vios {
		a.Violations = append(a.Violations, violationKey(v.Kind, v.Source, v.Node, v.Detail, v.ExampleDst))
	}
	sort.Strings(a.Violations)
	return a
}

func sortedStrings(xs []string) []string {
	if len(xs) == 0 {
		return nil
	}
	s := append([]string(nil), xs...)
	sort.Strings(s)
	return s
}

// reference holds the monolithic baseline's answers for one config state.
type reference struct {
	allPairs answer
	queries  []answer // positional with inputs.queries
}

// references computes the Batfish baseline's answers for both config
// states, [0] announced and [1] withdrawn, one state per goroutine.
func references(in *inputs) ([2]*reference, error) {
	var out [2]*reference
	var errs [2]error
	var wg sync.WaitGroup
	for i, announced := range []bool{true, false} {
		wg.Add(1)
		go func(i int, announced bool) {
			defer wg.Done()
			out[i], errs[i] = batfishReference(in.state(announced), in.queries)
			if errs[i] != nil {
				errs[i] = fmt.Errorf("baseline (announced=%v): %w", announced, errs[i])
			}
		}(i, announced)
	}
	wg.Wait()
	return out, errors.Join(errs[:]...)
}

func batfishReference(texts map[string]string, queries []s2.Query) (*reference, error) {
	keyed := make(map[string]string, len(texts))
	for name, text := range texts {
		keyed[name+".cfg"] = text
	}
	snap, err := config.ParseTexts(keyed)
	if err != nil {
		return nil, err
	}
	bf, err := baseline.NewBatfish(snap, baseline.BatfishOptions{})
	if err != nil {
		return nil, err
	}
	if err := bf.RunControlPlane(); err != nil {
		return nil, err
	}
	if _, err := bf.ComputeDataPlane(); err != nil {
		return nil, err
	}
	ap, err := bf.CheckAllPairs()
	if err != nil {
		return nil, err
	}
	ref := &reference{allPairs: newAnswer(nil, ap.Unreached, publicViolations(ap.Violations))}
	devices := snap.DeviceNames()
	for _, q := range queries {
		dq, err := compileQuery(q)
		if err != nil {
			return nil, err
		}
		col, err := bf.RunQuery(dq, false)
		if err != nil {
			return nil, err
		}
		vios, err := col.Report()
		if err != nil {
			return nil, err
		}
		var reached []string
		for _, d := range devices {
			if col.Arrived(d) != 0 {
				reached = append(reached, d)
			}
		}
		ref.queries = append(ref.queries, newAnswer(reached, nil, publicViolations(vios)))
	}
	return ref, nil
}

func publicViolations(vs []dataplane.Violation) []s2.Violation {
	out := make([]s2.Violation, len(vs))
	for i, v := range vs {
		out[i] = s2.Violation{Kind: v.Kind, Source: v.Source, Node: v.Node, Detail: v.Detail,
			ExampleDst: route.FormatAddr(v.ExampleDst)}
	}
	return out
}

// compileQuery turns a public query into the data-plane form the baseline
// runs, field for field as s2.Verifier.Check does.
func compileQuery(q s2.Query) (*dataplane.Query, error) {
	h := &dataplane.HeaderSpace{Proto: q.Protocol}
	if q.DstPrefix != "" {
		p, err := route.ParsePrefix(q.DstPrefix)
		if err != nil {
			return nil, err
		}
		h.DstPrefix = &p
	}
	if q.SrcPrefix != "" {
		p, err := route.ParsePrefix(q.SrcPrefix)
		if err != nil {
			return nil, err
		}
		h.SrcPrefix = &p
	}
	if q.DstPort != 0 {
		h.DstPortLo, h.DstPortHi = q.DstPort, q.DstPort
	}
	return &dataplane.Query{Header: h, Sources: q.Sources, Dests: q.Dests,
		Transits: q.Transits, MaxHops: q.MaxHops}, nil
}
