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
  image supply cannot reach the per-label target.

These three are one branch-and-bound search (:func:`_pick_nodes`) that
keeps its own stack, so no input is too deep for it.  It also carries an
admissible score bound (a branch is cut when even deciding every remaining
edge in its favor cannot beat the best score already found).  The bound
never changes the value or the reported witness; it only skips work.

Node sets are bitmasks over each graph's cached ``adjacency_masks``, and
a set of nodes of ``g`` is carried through a matching by
:func:`core._image`: one C-level ``compress`` over a dense mask, a walk
over its set bits otherwise.  The search maps each node's mapped
neighbours this way, and :func:`score`, the witness check of every
solver, maps each mapped node's out-neighbours, one popcount per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable

from .core import LabeledDigraph, _bits, _dense, _image, topological_sort
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
    ``adjacency_masks``: the image of ``u``'s mapped out-neighbours, one
    :func:`core._image` of ``out[u]`` within the domain, ANDed with the
    out-mask of ``phi(u)``.  That is one popcount per pair of ``phi``, and
    no edge set of ``g2`` is built."""
    _check_matching(g, g2, phi)
    index, out, _ = g.adjacency_masks
    index2, out2, _ = g2.adjacency_masks
    img_bit = [0] * len(out)
    dom = 0
    ends = []
    for v, w in phi.pairs:
        u, j = index[v], index2[w]
        img_bit[u] = 1 << j
        dom |= 1 << u
        ends.append((out[u], out2[j]))
    realized = 0
    for o, o2 in ends:
        x = o & dom
        if x:
            realized += (o2 & _image(x, img_bit)).bit_count()
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
    sizes = {a: len(vs) for a, vs in g.label_classes.items()}
    sizes2 = {a: len(vs) for a, vs in g2.label_classes.items()}
    per = {
        a: min(sizes.get(a, 0), sizes2.get(a, 0))
        for a in sorted(set(sizes) | set(sizes2))
    }
    return LabelBudget(per, sum(per.values()))


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
    value, phi = _pick_nodes(g, g2, order_filter=False, path_budget=False)
    return _outcome(g, g2, value, phi, Solver.ALG1)


def dmces_alg2(g: LabeledDigraph, g2: LabeledDigraph) -> DmcesOutcome:
    """Alg 1 plus order-respecting pruning; inputs must be transitive
    closures (weakly connected, simple, oriented)."""
    _require(g, g2, closure=True)
    value, phi = _pick_nodes(g, g2, order_filter=True, path_budget=False)
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
) -> tuple[int, NodeMatching]:
    """The shared search behind the three pruned solvers: the best score
    and a matching that realizes it.

    Nodes of ``g`` are processed in a fixed order (topological when the
    order filter is on); each is mapped to a candidate image (ascending id)
    or skipped, and skipping is allowed only while the per-label target
    stays reachable.  Each edge of ``g`` is decided exactly once, at the
    moment its later-processed endpoint is handled: realized (score),
    or dead (an endpoint skipped, or the image pair is not an edge).
    ``bound = n_edges - dead`` is therefore an upper bound on any
    completion of the current branch, and branches that cannot strictly
    beat the incumbent are cut.

    The search runs depth-first on an explicit stack, so its depth is not
    capped by the recursion limit.  It reads what both graphs cache: their
    ``adjacency_masks``, ``g2``'s candidate lists per label
    (``label_indices``) and both graphs' ``label_masks``.  Node sets are
    bitmasks held by value in the frames: ``used`` and ``dead_images``
    (alg3's permanently unusable images) of ``g2``, ``mapped`` and
    ``skipped`` of ``g``.  So backtracking undoes nothing.  Mapping ``u``
    to ``j`` writes ``img_bit[u] = 1 << j`` and ``img_in2[u] = in2[j]``,
    read only while ``u`` is in ``mapped``.  A frame serves the node at
    position ``i``:

    - ``cursor`` runs over its candidates, then ``-1`` for the skip;
    - ``bound`` already counts every edge to a processed node as dead;
    - ``a_in`` / ``a_out`` hold the images of its mapped in- /
      out-neighbours, so candidate ``j`` realizes the edges in
      ``a_in & in2[j]`` and ``a_out & out2[j]``.  Each is the sum of
      ``img_bit`` over a neighbour mask: :func:`core._image` for a node
      with a dense mask, its walk inline for any other.  Under the order
      filter every out-neighbour comes later, so ``a_out`` is 0;
    - ``avail`` holds the candidates that are unused, not dead and (order
      filter) not in-neighbours of the image of a same-label in-neighbour,
      that is, not in the union of ``img_in2`` over those neighbours;
    - ``free`` and ``slack`` serve alg3's image-supply test.
    """
    index, out, inn = g.adjacency_masks
    _, out2, in2 = g2.adjacency_masks
    labels = g.node_labels
    target = label_budget(g, g2).per_label
    class2 = g2.label_masks
    same = g.label_masks
    branches = {a: (*js, -1) for a, js in g2.label_indices.items()}
    # per position: the node, its in-neighbours, its out-neighbours (none
    # under the order filter: they all come later), its same-label nodes
    # (order filter only), its branches, its candidates' class, the matches
    # of that label a skip needs, the class size beyond target, and whether
    # either neighbour mask is dense enough for _image
    steps = []
    later = dict.fromkeys(same, 0)
    for v in reversed(topological_sort(g) if order_filter else g.nodes):
        a = labels[v]
        m = index[v]
        in_m = inn[m]
        out_m = 0 if order_filter else out[m]
        cand = branches.get(a, _SKIP)
        steps.append((
            m,
            in_m,
            out_m,
            same[a] if order_filter else 0,
            cand,
            class2.get(a, 0),
            target[a] - later[a],
            len(cand) - 1 - target[a],
            _dense(in_m) or _dense(out_m),
        ))
        later[a] += 1
    steps.reverse()
    n = len(steps)

    # per node of g, written when it is mapped: its image as a bit, and
    # the in-mask of its image
    img_bit = [0] * n
    img_in2 = [0] * n
    best = -1
    best_pairs: tuple[tuple[str, str], ...] = ()
    stack: list[tuple] = []
    # the branch entered next
    i, score, bound, used, dead_images, mapped, skipped = 0, 0, len(g.edges), 0, 0, 0, 0
    while True:
        if i == n:
            if score > best:
                best = score
                best_pairs = tuple(
                    (g.nodes[u], g2.nodes[img_bit[u].bit_length() - 1])
                    for u in _bits(mapped)
                )
        else:
            _, in_m, out_m, same_m, cand, cls2, _, spare, wide = steps[i]
            x = in_m & mapped
            y = out_m & mapped
            if wide:
                a_in = _image(x, img_bit)
                a_out = _image(y, img_bit)
            else:
                # _image's walk, inline: neither full neighbour mask is dense
                a_in = a_out = 0
                while x:
                    low = x & -x
                    x ^= low
                    a_in += img_bit[low.bit_length() - 1]
                while y:
                    low = y & -y
                    y ^= low
                    a_out += img_bit[low.bit_length() - 1]
            cross = 0
            x = in_m & mapped & same_m
            while x:
                low = x & -x
                x ^= low
                cross |= img_in2[low.bit_length() - 1]
            bound -= ((in_m | out_m) & (mapped | skipped)).bit_count()
            free = cls2 & ~used & ~dead_images
            slack = spare - (dead_images & cls2).bit_count()
            stack.append((
                i, iter(cand), score, bound, used, dead_images, mapped, skipped,
                a_in, a_out, free & ~cross, free, slack,
            ))
        # the next branch: the top frame's next candidate, else its skip
        while stack:
            (i, cursor, score, bound, used, dead_images, mapped, skipped,
             a_in, a_out, avail, free, slack) = stack[-1]
            for j in cursor:
                if j < 0:
                    m, _, _, _, _, cls2, need, _, _ = steps[i]
                    if (used & cls2).bit_count() >= need and bound > best:
                        skipped |= 1 << m
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
                stack.pop()
                continue
            break
        else:
            break
        i += 1

    return best, NodeMatching(best_pairs)

