package cxrpq

import "cxrpq/internal/ecrpq"

// Explanation is a full witness for one match of a CXRPQ: the matching
// morphism h on the query's node variables, a tuple of matching words (one
// per query edge), and the variable mapping ψ of the underlying conjunctive
// match (§3.1). This realizes, for a single match, the path-extraction
// capability the paper sketches in §8. Request{Op: "explain"} finds one,
// optionally constrained to an output tuple: the first witness of the
// request's member source (ecrpq.WitnessUnion), taken back to the query by
// buildExplanation on the union arm, or with the images of the mapping it was
// found under on the bounded one.
type Explanation struct {
	NodeOf map[string]int    // node variable -> database node
	Words  []string          // per original query edge, the matched path label
	Images map[string]string // string variable -> image
}

// buildExplanation maps an ECRPQ^er witness back through the translation:
// per-original-edge words are the concatenation of the split edges' words;
// variable images come from definition edges, free-variable reference
// edges, forced-ε variables, and the Step 3 replacement lists.
func buildExplanation(q *Query, tr *SimpleTranslation, repl map[string][]string, w *ecrpq.Witness) *Explanation {
	ex := &Explanation{
		NodeOf: map[string]int{},
		Words:  make([]string, len(q.Pattern.Edges)),
		Images: map[string]string{},
	}
	// restrict node assignment to the original pattern's variables
	origVars := map[string]bool{}
	for _, v := range q.Pattern.Vars() {
		origVars[v] = true
	}
	for v, n := range w.NodeOf {
		if origVars[v] {
			ex.NodeOf[v] = n
		}
	}
	for i, split := range tr.EdgeSplit {
		word := ""
		for _, ei := range split {
			word += w.Words[ei]
		}
		ex.Words[i] = word
	}
	for x, ei := range tr.DefEdge {
		ex.Images[x] = w.Words[ei]
	}
	for x, eis := range tr.RefEdges {
		if _, ok := ex.Images[x]; !ok && len(eis) > 0 {
			ex.Images[x] = w.Words[eis[0]] // free variable: shared word
		}
	}
	for x := range tr.ForcedEps {
		ex.Images[x] = ""
	}
	// resolve aliases from collapsed x{y} definitions (chains resolve in a
	// bounded number of passes)
	for pass := 0; pass < len(tr.Alias)+1; pass++ {
		changed := false
		for x, y := range tr.Alias {
			if _, ok := ex.Images[x]; ok {
				continue
			}
			if v, ok := ex.Images[y]; ok {
				ex.Images[x] = v
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// resolve variables eliminated by Step 3: image = concatenation of the
	// replacement variables' images (all of which survive)
	queryVars := q.CXRE().Vars()
	for z, parts := range repl {
		if !queryVars[z] {
			continue
		}
		img := ""
		complete := true
		for _, y := range parts {
			v, ok := ex.Images[y]
			if !ok {
				complete = false
				break
			}
			img += v
		}
		if complete {
			ex.Images[z] = img
		}
	}
	// report only the original query's string variables
	for x := range ex.Images {
		if !queryVars[x] {
			delete(ex.Images, x)
		}
	}
	return ex
}
