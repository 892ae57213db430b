package main

// The traced run: the same generated inputs, replayed in this process by one
// goroutine with a span around every layer call (layers.go), after the live
// server has been stopped. Its numbers say where the time of a request goes;
// they are never mixed into the end-to-end metrics.

import (
	"fmt"
	"path/filepath"
	"time"
)

// tracedSpans are the span names reported, each as _ms, _share and _allocs.
var tracedSpans = []string{
	"xregex.parse", "cxrpq.prepare", "cxrpq.bind", "planner.plan",
	"ecrpq.atomrel", "engine.reachbatch", "ecrpq.join",
	"ecrpq.equality", "ecrpq.vsf_union", "cxrpq.bounded_eval",
	"cxrpq.eval", "cxrpq.ttfr", "cxrpq.page_fetch", "cxrpq.fork",
	"graph.load", "graph.index", "graph.apply_delta", "graph.snapshot",
	"store.append", "store.checkpoint", "store.recover",
}

// stagedSpans are the spans that decompose a request's cxrpq.eval; what they
// leave of it is cxrpq.eval_unattributed. engine.reachbatch re-runs part of
// ecrpq.atomrel and the set-up spans belong to no request, so neither counts.
var stagedSpans = map[string]bool{
	"planner.plan": true, "ecrpq.atomrel": true, "ecrpq.join": true,
	"ecrpq.equality": true, "ecrpq.vsf_union": true, "cxrpq.bounded_eval": true,
}

const updateReqBase = 1 << 30 // request ids of update batches, apart from op indices

func tracedRun(cfg *runConfig, env *environment, res *runResult, m *measured, seconds float64) ([]metric, error) {
	in, spec := env.in, env.in.spec
	t := newTracer()
	mark := cfg.host.mark()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	literal := map[string]bool{}
	for i := range spec.Templates {
		literal[spec.Templates[i].Name] = isLiteral(&spec.Templates[i])
	}
	var wholeMS, serverMS float64
	replayed := 0
	compare := func(i int, whole, staged digest, wholeNS int64) {
		o, r := &in.ops[i], m.results[i]
		replayed++
		res.attempted++
		switch {
		case r.partial || o.Kind != "query":
			if whole.Count != r.d.Count || staged.Count < r.d.Count {
				res.failf("traced op %d (%s): server %v, whole %v, staged %v", i, o.Template, r.d, whole, staged)
			}
		case whole != r.d || staged != r.d:
			res.failf("traced op %d (%s): server %v, whole %v, staged %v", i, o.Template, r.d, whole, staged)
		}
		wholeMS += float64(wholeNS) / 1e6
		serverMS += r.elapsedMS
	}

	if spec.Update == nil {
		rp, err := newReplayer(t, in)
		if err != nil {
			return nil, err
		}
		for i := 0; i < m.executed && time.Now().Before(deadline); i++ {
			whole, staged, ns, err := rp.replay(i, &in.ops[i], literal[in.ops[i].Template])
			if err != nil {
				return nil, fmt.Errorf("traced op %d: %w", i, err)
			}
			compare(i, whole, staged, ns)
		}
	} else {
		var pooled []string
		for _, o := range in.literals {
			pooled = append(pooled, o.Query)
		}
		w, err := openWritePath(t, filepath.Join(cfg.outDir, "trace-store"), in.texts[spec.Graphs[0].DB],
			spec.Update.WALSyncEvery, spec.Update.CheckpointBytes, pooled)
		if err != nil {
			return nil, err
		}
		// Every read is replayed at the revision the live run read it at, so
		// the three answers must agree here as well.
		applied := 0
		for i := 0; i < m.executed && time.Now().Before(deadline); i++ {
			for ; applied < m.opRev[i]; applied++ {
				if err := w.apply(updateReqBase+applied, &in.updates[applied]); err != nil {
					return nil, fmt.Errorf("traced update %d: %w", applied, err)
				}
			}
			whole, staged, ns, err := w.read(i, &in.ops[i], spec.Stream)
			if err != nil {
				return nil, fmt.Errorf("traced read %d: %w", i, err)
			}
			compare(i, whole, staged, ns)
		}
		before, after, err := w.recover()
		if err != nil {
			return nil, fmt.Errorf("traced recovery: %w", err)
		}
		if before != after {
			res.failf("traced recovery: revision %d before the restart, %d after", before, after)
		}
	}
	if err := t.write(filepath.Join(cfg.outDir, "trace-"+spec.Name+".jsonl")); err != nil {
		return nil, err
	}

	// The spans are written as the wall clock saw them; the _ms metrics are
	// in host time, like every other duration the benchmark reports.
	wall := cfg.host.between(mark, cfg.host.mark()).wall()
	stats := summarize(t.spans, rootSpan)
	var out []metric
	for _, name := range tracedSpans {
		st := stats[name]
		out = append(out,
			metric{name + "_ms", st.medianMS * wall, "ms"},
			metric{name + "_share", st.share, "ratio"},
			metric{name + "_allocs", st.allocs, "count"})
	}
	// What the staged calls do not account for, per request and in total.
	perReq := map[int]float64{}
	var evalNS, stagedNS float64
	for _, s := range t.spans {
		switch {
		case s.Name == rootSpan:
			perReq[s.Req] += float64(s.ns())
			evalNS += float64(s.ns())
		case stagedSpans[s.Name]:
			perReq[s.Req] -= float64(s.ns())
			stagedNS += float64(s.ns())
		}
	}
	var unattr []float64
	for req, ns := range perReq {
		if req < updateReqBase {
			unattr = append(unattr, ns/1e6)
		}
	}
	out = append(out,
		metric{"cxrpq.eval_unattributed_ms", median(unattr) * wall, "ms"},
		metric{"cxrpq.eval_unattributed_share", ratio(evalNS-stagedNS, evalNS), "ratio"},
		metric{"trace.coverage", ratio(wholeMS, serverMS), "ratio"},
		metric{"trace.replayed", float64(replayed), "count"})
	return out, nil
}
