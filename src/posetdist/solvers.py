"""Direct solvers for the maximum common directed edge overlap.

Given node-labeled digraphs G and G', a feasible solution is an injective,
label-respecting partial map phi from nodes of G to nodes of G'.  Its score
is the number of ordered pairs (v1, v2) that are an edge in G while
(phi(v1), phi(v2)) is an edge in G'.  The optimum over all feasible
solutions is the quantity every solver here computes:

- :func:`dmces_bruteforce` enumerates every feasible solution with no
  pruning at all; it is the oracle the other solvers are tested against.
- :func:`dmces_alg1` prunes by per-label cardinality: some optimum matches
  exactly min(|class|, |class'|) nodes of every label, so a node may be
  skipped only while that target stays reachable.
- :func:`dmces_alg2` additionally explores only order-respecting solutions;
  on transitive closures every optimum is order-respecting, because
  swapping the images of a twisted same-label pair strictly increases the
  score there.
- :func:`dmces_alg3` additionally tracks permanently unusable image nodes
  when every label class is a chain, cutting branches whose remaining
  image supply cannot reach the per-label target; the dead images also
  do the work of alg2's same-label filter.

These three are one branch-and-bound search (:func:`_pick_nodes`) that
keeps its own stack, so no input is too deep for it.  It also carries an
admissible score bound (a branch is cut when even deciding every remaining
edge in its favor cannot beat the best score already found).  alg1 and
alg2 stop once the best score meets the screening bound
(:func:`_screening_bound`); alg3 stops at a leaf once no frame on its
stack can branch again, which on equal label class sizes is its first
leaf.  None of these changes the value or the reported witness; they only
skip work.

Node sets are bitmasks over each graph's cached ``adjacency_masks``, and
a node's mapped neighbours are carried through a matching as the sum of
a table that holds each mapped node's image bit and zero elsewhere
(:func:`core._image`).  Over a dense neighbour mask that sum is one
C-level ``compress`` through the selector the graph caches for it
(:func:`core._selector`); over any other it is a walk of the mapped
neighbours, highest bit first through the shared bit table of
:func:`core._bit_table`.  The search sums each node's in-neighbours this
way, and :func:`score`, the witness check of every solver, each mapped
node's out-neighbours, one popcount per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress
from typing import Iterable

from .core import LabeledDigraph, _bit_table, _image
from .errors import (
    DegenerateInput,
    InvalidMatching,
    KindMismatch,
    LabelClassNotPath,
    NotTransitivelyClosed,
    PairNotTwisted,
    PropertyViolation,
    SizeCapExceeded,
)

_BRUTE_NODE_CAP = 12  # dmces_bruteforce's guard against large inputs


class Solver(str, Enum):
    BRUTE = "brute"
    ALG1 = "alg1"
    ALG2 = "alg2"
    ALG3 = "alg3"
    CLIQUE = "clique"

    def __str__(self) -> str:  # argparse/json friendliness
        return self.value


@dataclass(frozen=True)
class NodeMatching:
    """An injective, label-respecting pair set; pairs sorted by domain id."""

    pairs: tuple[tuple[str, str], ...]

    def __init__(self, pairs: Iterable[tuple[str, str]]):
        object.__setattr__(self, "pairs", tuple(sorted(pairs)))

    @cached_property
    def mapping(self) -> dict[str, str]:
        return dict(self.pairs)

    @property
    def domain(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.pairs)

    @property
    def image(self) -> tuple[str, ...]:
        return tuple(w for _, w in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class LabelBudget:
    """Per-label matchable node counts: min of the two class sizes."""

    per_label: dict[str, int]
    total: int


@dataclass(frozen=True)
class DmcesOutcome:
    """A solver result: optimal value, one optimal matching, and which
    solver produced it.  The witness passed :func:`_outcome`'s check: it
    realizes exactly ``value`` edges, which :func:`matched_edges` lists."""

    value: int
    witness: NodeMatching
    solver: Solver


def _check_matching(g: LabeledDigraph, g2: LabeledDigraph, phi: NodeMatching) -> None:
    # the whole matching is checked at once; the loop runs only to name the
    # first bad pair
    dom, img = phi.domain, phi.image
    try:
        ok = list(map(g.node_labels.__getitem__, dom)) == list(
            map(g2.node_labels.__getitem__, img)
        )
    except KeyError:
        ok = False
    if ok and len(set(dom)) == len(dom) and len(set(img)) == len(img):
        return
    seen_dom: set[str] = set()
    seen_img: set[str] = set()
    for v, w in phi.pairs:
        if v not in g.node_labels:
            raise InvalidMatching(f"{v!r} is not a node of the first graph")
        if w not in g2.node_labels:
            raise InvalidMatching(f"{w!r} is not a node of the second graph")
        if v in seen_dom or w in seen_img:
            raise InvalidMatching("matching is not injective")
        seen_dom.add(v)
        seen_img.add(w)
        if g.node_labels[v] != g2.node_labels[w]:
            raise InvalidMatching(f"label mismatch on pair ({v!r}, {w!r})")


def score(g: LabeledDigraph, g2: LabeledDigraph, phi: NodeMatching) -> int:
    """Number of edges (v1, v2) of ``g`` whose image (phi(v1), phi(v2)) is
    an edge of ``g2``.

    Counted per mapped node ``u`` on both graphs' cached
    ``adjacency_masks``: the image of ``u``'s mapped out-neighbours, ANDed
    with the out-mask of ``phi(u)``: :func:`core._image` of ``out[u]``
    within the domain, through ``g``'s cached out-selector when
    ``out[u]`` is dense, as the image bits are zero outside the domain.
    That is one popcount per pair of ``phi``, and no edge set of ``g2`` is
    built."""
    _check_matching(g, g2, phi)
    index, out, _ = g.adjacency_masks
    index2, out2, _ = g2.adjacency_masks
    selectors = g.out_selectors
    img_bit = [0] * len(out)
    dom = 0
    ends = []
    for v, w in phi.pairs:
        u, j = index[v], index2[w]
        img_bit[u] = 1 << j
        dom |= 1 << u
        ends.append((out[u], out2[j], selectors[u]))
    realized = 0
    for o, o2, selector in ends:
        x = o & dom
        if x:
            realized += (o2 & _image(x, img_bit, selector)).bit_count()
    return realized


def matched_edges(
    g: LabeledDigraph, g2: LabeledDigraph, phi: NodeMatching
) -> frozenset[tuple[tuple[str, str], tuple[str, str]]]:
    """The edge pairs realized by ``phi``; its size equals score()."""
    m = phi.mapping
    return frozenset(
        ((a, b), (m[a], m[b]))
        for a, b in g.edges
        if a in m and b in m and (m[a], m[b]) in g2.edge_set
    )


def label_budget(g: LabeledDigraph, g2: LabeledDigraph) -> LabelBudget:
    """min(|class|, |class'|) per label over the union of both alphabets."""
    sizes, sizes2 = g.label_sizes, g2.label_sizes
    per = {
        a: min(sizes.get(a, 0), sizes2.get(a, 0))
        for a in sorted(set(sizes) | set(sizes2))
    }
    return LabelBudget(per, sum(per.values()))


def _screening_bound(classes: dict, classes2: dict) -> int:
    """The screening bound of RASCAL (Raymond, Gardiner & Willett,
    *Comput. J.* 2002) on two groupings of items by key: the sum over the
    keys of min(|class|, |class'|).  A matching realizes the edges of one
    ``endpoint_classes`` class on edges of the same class, injectively, so
    on two graphs' ``endpoint_classes`` it bounds DMCES from above."""
    return sum(min(len(c), len(classes2.get(key, ()))) for key, c in classes.items())


def respects_order_on_labels(
    g: LabeledDigraph, g2: LabeledDigraph, phi: NodeMatching
) -> frozenset[frozenset[str]]:
    """The twisted pairs of ``phi``: same-labeled v1, v2 with (v1, v2) an
    edge of ``g`` while (phi(v2), phi(v1)) is an edge of ``g2``.  An empty
    result means the matching respects order on labels."""
    _check_matching(g, g2, phi)
    m = phi.mapping
    out: set[frozenset[str]] = set()
    for v1, v2 in g.edges:
        if (
            v1 in m
            and v2 in m
            and g.node_labels[v1] == g.node_labels[v2]
            and (m[v2], m[v1]) in g2.edge_set
        ):
            out.add(frozenset((v1, v2)))
    return frozenset(out)


def untwist(
    g: LabeledDigraph,
    g2: LabeledDigraph,
    phi: NodeMatching,
    pair: Iterable[str],
) -> NodeMatching:
    """Swap the images of one twisted pair.  The swap resolves that pair
    (on an oriented second graph it cannot stay twisted, so re-applying
    raises).  Raises :class:`PairNotTwisted` if the pair is not in the
    violation set of ``phi``."""
    key = frozenset(pair)
    if len(key) != 2:
        raise PairNotTwisted("pair must contain two distinct nodes")
    if key not in respects_order_on_labels(g, g2, phi):
        raise PairNotTwisted(f"{set(pair)!r} is not twisted under this matching")
    u, v = sorted(key)
    m = phi.mapping
    swapped = dict(m)
    swapped[u], swapped[v] = m[v], m[u]
    return NodeMatching(tuple(swapped.items()))


def _outcome(
    g: LabeledDigraph, g2: LabeledDigraph, value: int, phi: NodeMatching, solver: Solver
) -> DmcesOutcome:
    """The one witness check of every solver: ``phi`` must be injective,
    label-respecting and realize the ``value`` its search claims; else the
    search is at fault, a ``RuntimeError`` (exit code 1 in the CLI)."""
    try:
        realized = score(g, g2, phi)
    except InvalidMatching as exc:
        raise RuntimeError(f"internal error: {solver.value} witness: {exc}") from exc
    if realized != value:
        raise RuntimeError(f"internal error: {solver.value} scored {value}, witness {realized}")
    return DmcesOutcome(value, phi, solver)


def dmces_bruteforce(g: LabeledDigraph, g2: LabeledDigraph) -> DmcesOutcome:
    """Exhaustive search over every feasible solution, no pruning.

    Every node of ``g`` is either skipped or mapped to any unused node of
    ``g2`` with the same label; the best score wins, first-found on ties.
    This is the oracle the pruned solvers are validated against, so it
    stays deliberately naive; a cap of ``_BRUTE_NODE_CAP`` nodes a graph
    guards against accidental use on large inputs.  No structural guard
    runs: the oracle takes any labeled digraph, and raises
    :class:`KindMismatch` on any other graph.
    """
    _require_digraph("first", g)
    _require_digraph("second", g2)
    if len(g.nodes) > _BRUTE_NODE_CAP or len(g2.nodes) > _BRUTE_NODE_CAP:
        raise SizeCapExceeded(
            f"brute force capped at {_BRUTE_NODE_CAP} nodes "
            f"(got {len(g.nodes)} and {len(g2.nodes)})"
        )
    by_label: dict[str, list[str]] = {
        a: sorted(vs) for a, vs in g2.label_classes.items()
    }
    order = list(g.nodes)
    edge_set2 = g2.edge_set
    used: set[str] = set()
    current: dict[str, str] = {}
    best = -1
    best_phi: dict[str, str] = {}

    def recurse(i: int) -> None:
        nonlocal best, best_phi
        if i == len(order):
            # counted here rather than through matched_edges: the oracle
            # stays independent of the routine it audits, at half the cost
            value = sum(
                1
                for a, b in g.edges
                if a in current
                and b in current
                and (current[a], current[b]) in edge_set2
            )
            if value > best:
                best = value
                best_phi = dict(current)
            return
        m = order[i]
        for n in by_label.get(g.node_labels[m], ()):
            if n in used:
                continue
            current[m] = n
            used.add(n)
            recurse(i + 1)
            used.discard(n)
            del current[m]
        recurse(i + 1)  # skip m

    recurse(0)
    return _outcome(g, g2, best, NodeMatching(tuple(best_phi.items())), Solver.BRUTE)


def _require_digraph(which: str, graph) -> None:
    if not isinstance(graph, LabeledDigraph):
        raise KindMismatch(f"{which} graph must be a LabeledDigraph, not {type(graph).__name__}")


def _require(
    g: LabeledDigraph,
    g2: LabeledDigraph,
    *,
    edges: bool = False,
    closure: bool = False,
    chains: bool = False,
) -> None:
    """The precondition guard of every solver entry point.

    Each graph, first then second, must be a :class:`LabeledDigraph`
    (else :class:`KindMismatch`), weakly connected, simple and oriented,
    and then, as asked, have an edge and be transitively closed; label
    classes are checked for chains only after both graphs passed.  A
    :class:`PosetDigraph` passes every check but the chain one by
    construction.
    """
    for which, graph in zip(("first", "second"), (g, g2)):
        _require_digraph(which, graph)
        if not graph.report.is_wso:
            raise PropertyViolation(
                f"{which} graph must be weakly connected, simple, and oriented"
            )
        if edges and not graph.edges:
            raise DegenerateInput(f"{which} graph has no edges")
        if closure and not graph.report.is_transitively_closed:
            raise NotTransitivelyClosed(f"{which} graph is not transitively closed")
    if chains:
        for which, graph in zip(("first", "second"), (g, g2)):
            if not graph.report.per_label_path:
                raise LabelClassNotPath(
                    f"some label class of the {which} graph is not a directed chain"
                )


def dmces_alg1(g: LabeledDigraph, g2: LabeledDigraph) -> DmcesOutcome:
    """Branch-and-bound search with per-label cardinality pruning; inputs
    must be weakly connected, simple, and oriented."""
    _require(g, g2)
    stop = _screening_bound(g.endpoint_classes, g2.endpoint_classes)
    value, phi = _pick_nodes(g, g2, order_filter=False, path_budget=False, stop=stop)
    return _outcome(g, g2, value, phi, Solver.ALG1)


def dmces_alg2(g: LabeledDigraph, g2: LabeledDigraph) -> DmcesOutcome:
    """Alg 1 plus order-respecting pruning; inputs must be transitive
    closures (weakly connected, simple, oriented)."""
    _require(g, g2, closure=True)
    stop = _screening_bound(g.endpoint_classes, g2.endpoint_classes)
    value, phi = _pick_nodes(g, g2, order_filter=True, path_budget=False, stop=stop)
    return _outcome(g, g2, value, phi, Solver.ALG2)


def dmces_alg3(g: LabeledDigraph, g2: LabeledDigraph) -> DmcesOutcome:
    """Alg 2 plus dead-image tracking; inputs must be transitive closures
    whose label classes are directed chains."""
    _require(g, g2, closure=True, chains=True)
    value, phi = _pick_nodes(g, g2, order_filter=True, path_budget=True)
    return _outcome(g, g2, value, phi, Solver.ALG3)


# the branches of a node whose label has no candidate: the skip alone
_SKIP = (-1,)


def _pick_nodes(
    g: LabeledDigraph,
    g2: LabeledDigraph,
    *,
    order_filter: bool,
    path_budget: bool,
    stop: int | None = None,
) -> tuple[int, NodeMatching]:
    """The shared search behind the three pruned solvers: the best score
    and a matching that realizes it.

    Nodes of ``g`` are processed in its search order
    (:func:`core._search_order`, topological on the transitive closures
    the order filter takes); each is mapped to a candidate image, tried in
    ``g2``'s search order, or skipped, and skipping is allowed only while
    the per-label target min(|class|, |class'|) stays reachable.  Each
    edge of ``g`` is decided exactly once, at the moment its
    later-processed endpoint is handled: realized (score), or dead (an
    endpoint skipped, or the image pair is not an edge).
    ``bound = n_edges - dead`` is therefore an upper bound on any
    completion of the current branch, and branches that cannot strictly
    beat the incumbent are cut.  The search ends as soon as the incumbent
    scores ``stop``, an upper bound on the optimum when given: the
    incumbent changes only for a strictly better score, so the witness is
    the one the whole search would return.  alg3 (``path_budget``) also
    ends at a leaf where every frame on the stack is *forced*: pushed with
    no spare image (``slack <= 0``) and a skip that cannot meet the target
    (``used`` holds fewer than ``need`` images of its class, and a frame's
    ``used`` never changes).  Of two free candidates ``j1`` below ``j2`` of
    a chain class, ``j1`` lies in ``in2[j2] & free``, so with no slack at
    most one candidate passes the image-supply test: a forced frame has one
    branch at most, and that leaf is the last.

    The search runs depth-first on an explicit stack, so its depth is not
    capped by the recursion limit.  It reads what both graphs cache: their
    ``adjacency_masks`` and ``label_sizes``, ``g``'s rows
    (:func:`core._search_rows`), and ``g2``'s candidates per label
    (:func:`core._candidates`) and ``label_masks``; per pair it only joins
    them.
    Node sets are bitmasks held by value in the frames: ``used`` and
    ``dead_images`` (alg3's permanently unusable images) of ``g2``,
    ``mapped`` and ``skipped`` of ``g``.  So backtracking undoes nothing
    there.  Mapping ``u`` to ``j`` writes ``img_bit[u] = 1 << j`` and
    ``img_in2[u] = in2[j]``; ``img_in2[u]`` is read only while ``u`` is in
    ``mapped``.  ``img_bit[u]`` is non-zero exactly while ``u`` is mapped
    on the current branch: it is zeroed when ``u`` takes its skip and when
    its frame is popped, the two stores off the descent path.  A frame
    serves the node at position ``i``:

    - ``cursor`` runs over its candidates, then ``-1`` for the skip;
    - ``bound`` already counts every edge to a processed node as dead;
    - ``a_in`` / ``a_out`` hold the images of its mapped in- /
      out-neighbours, so candidate ``j`` realizes the edges in
      ``a_in & in2[j]`` and ``a_out & out2[j]``.  Each is the sum of
      ``img_bit`` over a neighbour mask.  For a dense in-mask, by the
      invariant above, ``a_in`` is ``sum(compress(img_bit, selector))``
      over the whole mask, through the selector of ``g``'s row; for any
      other it walks the mapped in-neighbours inline, highest bit first.
      ``a_out`` is :func:`core._image`'s walk of the mapped
      out-neighbours; under the order filter every out-neighbour comes
      later, so it is 0;
    - ``avail`` holds the candidates that are unused, not dead and (alg2
      only) not in-neighbours of the image of a same-label in-neighbour,
      that is, not in ``cross``, the union of ``img_in2`` over those
      neighbours, walked the same way.  alg3's rows carry no same-label
      mask: mapping a neighbour to ``j`` made the free images of
      ``in2[j]`` dead, so ``cross`` holds no free image there;
    - ``free`` and ``slack`` serve alg3's image-supply test;
    - ``unforced`` counts the frames on the stack up to this one that are
      not forced.
    """
    _, out2, in2 = g2.adjacency_masks
    branches = g2.candidates
    # per label of g: its branches, its candidates' class, its target
    # min(|class|, |class'|) and the class size beyond target
    sizes2 = g2.label_sizes
    class2 = g2.label_masks
    per_label = {}
    for a, size in g.label_sizes.items():
        size2 = sizes2.get(a, 0)
        target = min(size, size2)
        per_label[a] = (branches.get(a, _SKIP), class2.get(a, 0), target, size2 - target)
    # per position: a row of g (see core._search_rows) with its
    # label's entry, where a skip needs the target less the later nodes
    steps = [
        (m, in_m, out_m, same_m if order_filter and not path_budget else 0,
         cand, cls2, target - later, spare, in_sel)
        for m, in_m, out_m, same_m, a, later, in_sel in g.search_rows
        for cand, cls2, target, spare in (per_label[a],)
    ]
    n = len(steps)

    # per node of g, written when it is mapped: its image as a bit (zero
    # while unmapped), and the in-mask of its image
    img_bit = [0] * n
    img_in2 = [0] * n
    bit = _bit_table(n)
    best = -1
    best_pairs: tuple[tuple[str, str], ...] = ()
    stack: list[tuple] = []
    # the branch entered next, and the unforced frames on the stack
    i, score, bound, used, dead_images, mapped, skipped = 0, 0, len(g.edges), 0, 0, 0, 0
    unforced = 0
    while True:
        if i == n:
            if score > best:
                best = score
                best_pairs = tuple(
                    (g.nodes[u], g2.nodes[b.bit_length() - 1])
                    for u, b in enumerate(img_bit)
                    if b
                )
                if best == stop:
                    break
            if path_budget and not unforced:
                break
        else:
            _, in_m, out_m, same_m, cand, cls2, need, spare, in_sel = steps[i]
            if in_sel is None:
                # _image's walk, inline
                a_in = 0
                x = in_m & mapped
                while x:
                    v = x.bit_length() - 1
                    x ^= bit[v]
                    a_in += img_bit[v]
            else:
                a_in = sum(compress(img_bit, in_sel))
            y = out_m & mapped
            a_out = _image(y, img_bit) if y else 0
            cross = 0
            x = in_m & mapped & same_m
            while x:
                v = x.bit_length() - 1
                x ^= bit[v]
                cross |= img_in2[v]
            bound -= ((in_m | out_m) & (mapped | skipped)).bit_count()
            free = cls2 & ~used & ~dead_images
            slack = spare - (dead_images & cls2).bit_count()
            # alg3's forced frame: no spare image, and its skip falls short
            if not (path_budget and slack <= 0 and (used & cls2).bit_count() < need):
                unforced += 1
            stack.append((
                i, iter(cand), score, bound, used, dead_images, mapped, skipped,
                a_in, a_out, free & ~cross, free, slack, unforced,
            ))
        # the next branch: the top frame's next candidate, else its skip
        while stack:
            (i, cursor, score, bound, used, dead_images, mapped, skipped,
             a_in, a_out, avail, free, slack, unforced) = stack[-1]
            for j in cursor:
                if j < 0:
                    m, _, _, _, _, cls2, need, _, _ = steps[i]
                    if (used & cls2).bit_count() >= need and bound > best:
                        skipped |= 1 << m
                        img_bit[m] = 0
                        break
                    continue
                if not avail >> j & 1:
                    continue
                fresh = 0
                if path_budget:
                    fresh = in2[j] & free
                    if fresh.bit_count() > slack:
                        continue
                gained = (a_in & in2[j]).bit_count() + (a_out & out2[j]).bit_count()
                if bound + gained <= best:
                    continue
                m = steps[i][0]
                img_bit[m] = 1 << j
                img_in2[m] = in2[j]
                score += gained
                bound += gained
                used |= 1 << j
                dead_images |= fresh
                mapped |= 1 << m
                break
            else:
                img_bit[steps[i][0]] = 0
                stack.pop()
                continue
            break
        else:
            break
        i += 1

    return best, NodeMatching(best_pairs)

