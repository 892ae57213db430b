// Package repro is a from-scratch Go reproduction of
//
//	Markus L. Schmid, "Conjunctive Regular Path Queries with String
//	Variables", PODS 2020 (arXiv:1912.09326).
//
// The module path is cxrpq (see go.mod); build and test with
// `go build ./... && go test ./...` from a clean checkout.
//
// The implementation lives under internal/:
//
//	internal/automata    NFAs (products, emptiness, enumeration) and the
//	                     on-the-fly subset-construction cache (SubsetCache)
//	                     that interns state sets as dense int ids
//	internal/xregex      regular expressions with backreferences: AST,
//	                     parser, ref-word semantics, fragment classifiers,
//	                     compilation, Lemma 10 instantiation machinery
//	internal/graph       graph databases (§2.2) with a label-indexed CSR
//	                     adjacency view (Index) and a revision-cached
//	                     alphabet, both delta-maintained: batched mutations
//	                     (Delta / ApplyDelta) are recorded in a per-revision
//	                     log, and insert-only windows extend the index in
//	                     place (shared CSR base + overlay) and revalidate
//	                     the alphabet instead of rebuilding (MaintStats counts the
//	                     retained-vs-rebuilt paths); DB.Snapshot pins a
//	                     revision as an immutable read view sharing the
//	                     live DB's storage (persistent name layers, pinned
//	                     CSR spans, pre-warmed derived caches), and
//	                     store.go is the durability layer: an append-only
//	                     write-ahead log of framed Delta batches
//	                     (length + CRC32 + revision-windowed payload,
//	                     fsync per SyncEvery) with automatic checkpoints,
//	                     torn-tail-tolerant crash recovery (OpenStore)
//	                     and log-tailing read-only followers
//	                     (OpenFollower); sentinel frames of older logs
//	                     are skipped
//	internal/engine      the product-reachability core shared by every
//	                     evaluation path: integer-interned graph×NFA BFS
//	                     with bitset visited sets (Reach) and the
//	                     multi-source kernel (ReachBatchEx): a
//	                     level-synchronous MS-BFS over the graph×automaton
//	                     product, 64 sources per machine word; both run on
//	                     the calling goroutine on pooled scratch, and the
//	                     atom store's complete row tables run through the
//	                     batches instead of one search per source;
//	                     both kernels take one ReachOpts: BFS level indices
//	                     (shortest-witness distances), a pluggable
//	                     edge-weight function (Weight switches the level
//	                     computation from BFS to a heap Dijkstra over the
//	                     same product) and a per-query Budget (deadline,
//	                     context cancellation, Stop) polled at level
//	                     granularity
//	internal/pattern     graph patterns / conjunctive path queries (§2.3)
//	internal/crpq        CRPQs (Lemma 1 evaluation)
//	internal/ecrpq       ECRPQs with regular relations; ECRPQ^er is the
//	                     synchronized-product evaluation core, and its
//	                     join executor (one compiled plan per conjunct,
//	                     atoms behind one source interface, a backtracking
//	                     and a best-first driver) is the last step of
//	                     every evaluation algorithm in the library, and
//	                     JoinOrder its one join order: fewest unbound
//	                     endpoints first, ties in query order, no
//	                     statistics read;
//	                     union.go holds the program's member loops (set,
//	                     settle, exists, witness, stream, any-k roots over
//	                     a member source, the members in order on the
//	                     caller's goroutine), which both unions run
//	                     through: a vstar-free query's ECRPQ^er members and
//	                     a bounded run's mappings, each an ecrpq.Leaf
//	internal/cxrpq       the paper's contribution: CXRPQs, their fragments,
//	                     evaluation algorithms (Thms 2/5/6, Cor 1), normal
//	                     form (Lemmas 4-6, 8), translations (Lemmas 12-14);
//	                     bounded.go is the prefix-incremental CXRPQ^≤k
//	                     engine (candidate images from a label-index walk
//	                     steered by the definition bodies, relaxed-atom
//	                     subtree pruning by existence probe, and a mapping
//	                     enumeration that is the member source of the union
//	                     of CRPQs the query is under the bound: each
//	                     mapping's CRPQ is the run's one leaf over its
//	                     atoms, the pattern compiled once per run);
//	                     plan.go/session.go are the prepared-query
//	                     subsystem: Prepare(q) compiles an immutable Plan
//	                     (fragment class, bounded schedule, a branch
//	                     count per component, the radix of the union of
//	                     ECRPQ^er every vstar-free query is, member i
//	                     decoded by xregex.Branch and translated when a
//	                     driver asks for it: Lemma 3 / Lemma 7),
//	                     Plan.Bind(db) yields a
//	                     concurrency-safe, stateless Session over the
//	                     database's atom store (ecrpq.AtomStore: one
//	                     ecrpq.Atom per label and alphabet with its compiled
//	                     automaton, the atom's row tables — a complete one
//	                     is all its pairs, the other direction its
//	                     inversion — supports and path-existence
//	                     verdicts, and the answers filed
//	                     under each plan, one byte account, shared by every
//	                     session on the snapshot), revision-checked and
//	                     carried once per revision move, each entry
//	                     settled on its first read: supports, probe rows
//	                     and verdicts are retained or derived
//	                     again on the delta's frontier, inserts and
//	                     removals alike, and an answer carried over them
//	                     is settled by joins seeded on that frontier
//	                     (DB.ApplyDelta, then the first read or
//	                     a publish's carry; new labels start afresh),
//	                     hardened
//	                     by the metamorphic mutation-sequence harness in
//	                     mutation_diff_test.go; a query runs one way, a
//	                     Request (eval, bool, check or explain under
//	                     fragment dispatch, ≤k or log semantics) handed to
//	                     Session.Do — cxrpq.Do is Prepare + Bind + Do —
//	                     or StreamOptions to Session.Stream;
//	                     Session.PlanReport exposes the join order, and
//	                     Session.Stream
//	                     (stream.go) is the pull-based any-k surface: a
//	                     Cursor serving FetchRows pages from a lazy
//	                     backtracking join (atom rows searched in growing
//	                     source chunks, so the first row costs one
//	                     shallow probe), with per-stream budgets
//	                     (deadline/limit/context cancellation), ranked
//	                     best-witness-first order produced by the
//	                     incremental any-k enumerator (ecrpq/anyk.go: a
//	                     priority queue over partial assignments keyed by
//	                     cost plus an admissible per-constraint lower
//	                     bound, Lawler child/sibling expansion, memoized
//	                     kernel-batched extension lists — the first row
//	                     streams out without draining the answer set)
//	                     over unit or pluggable per-label edge weights
//	                     and pulled on the fetching goroutine into a
//	                     ranked prefix every cursor of the revision pages
//	                     through, and an unranked producer that holds its
//	                     resumable search (one frame stack per join, the
//	                     bounded engine's image stack) between fetches,
//	                     so ApplyDelta interleaves with open cursors and
//	                     no cursor starts a goroutine or leaks when dropped
//	internal/oracle      brute-force reference implementations backing the
//	                     conformance tests
//	internal/reductions  executable hardness reductions (Thms 1/3/7)
//	internal/separations Figure 5 separating queries and witness families
//	internal/workload    synthetic graph generators (incl. the gMark-style
//	                     skewed GMark), the random query
//	                     generator (RandomQuery) behind the differential
//	                     fuzz harness, and the MutationStream delta
//	                     workload behind the delta-maintenance differentials
//	internal/exp         the E1-E18 experiment harness (the paper's
//	                     figures, theorems, reductions and separations)
//
// cmd/cxrpq-serve is the concurrent HTTP/JSON evaluation server over the
// prepared-query subsystem — each /query is decoded, resolved to a pooled
// plan bound to the published view, planned into one cxrpq.Request and
// executed by Session.Do or Session.Stream — with a per-database pool of
// prepared plans,
// MVCC reads (every /query, /plan and cursor fetch runs lock-free on the
// latest published snapshot epoch, loaded through one atomic pointer),
// pull-based streaming /query with limit/cursor pagination, deadline_ms
// budgets on every mode (expiry or client disconnect returns the rows found
// so far with "truncated" on every page of the cut stream; a bool, check or
// explain without a witness yet answers false, "truncated") and ranked
// best-witness-first order served incrementally with optional per-label
// "weights" — on a durable database a ranked cursor's token carries its
// request, revision and position, so a fetch after a restart or an eviction
// rebuilds the stream at the exact delivered row — a two-tier
// in-flight limiter that degrades to shed partial answers before
// rejecting with 429, batched /update deltas (additions and removals)
// that append to the write-ahead log before acknowledging and carry the
// database's atom store onto the new snapshot incrementally, once, off the
// reader path (invalidating parked cursors), a /plan debug endpoint
// reporting the join order, how each atom is visited and which endpoints
// each atom is read for, and /stats counters for each
// database's atom store (entries and bytes per kind, hits, delta passes,
// retained-vs-extended entries), time-to-first-row and rows-streamed
// telemetry, the reachability kernel's batch/level/edge volumes, and the
// store's WAL/checkpoint/recovery counters; -data-dir makes every
// database durable (recover on startup, WAL-append-then-ack), -follower
// serves the same directories read-only by tailing the leader's log and
// -pprof mounts net/http/pprof (see the quickstart and the PR 8 durability section in
// internal/README.md).
//
// internal/README.md describes the architecture of the hot path and the
// Plan/Session lifecycle. bench_test.go in this directory exposes every
// experiment as a Go benchmark and cmd/cxrpq-exp prints their tables;
// bench/ and cmd/cxrpq-bench measure the server end to end and layer by
// layer (bench/README.md). reach_test.go in this directory holds non-test
// code to what some binary runs: a declaration that no main reaches, and
// that its short allow-list (paper statements and differential references,
// shared test vocabulary, the benchmark replay's calls) does not name,
// fails it.
package repro
