"""Self-contained SAT routines: solving, model enumeration, exact model
counting, and projected model counting.

They share one engine, ``_Trail``: one assignment array indexed by
literal, and a trail of the literals made true, undone on backtrack.
Occurrence lists per literal are built once per call, and each clause
keeps a count of its true literals and of its literals not yet false, so
making a literal true touches only the clauses that hold it or its
negation, and unit clauses are found from the counts. No clause list is
copied during the search.

Every entry point takes clauses over variables 1..num_vars and raises
ValueError on any other literal, 0 included. ``_Trail.leaves`` walks the
decision tree (the last free literal of the first clause not yet
satisfied, true first) and stops at each leaf, where every clause is
satisfied: ``models`` expands every leaf, ``solve_clauses`` is its first
model, and each test of a ``checker`` assumes literals and seeks one leaf
on an engine kept across tests. ``_Trail.count`` counts the assignments to
a set of kept variables that extend to a model, and a plain count keeps
every variable. It splits the clauses not yet satisfied into components
over the free variables, multiplies their counts, and branches in each
component on the kept variable of lowest rank, then of highest
Jeroslow-Wang score (the sum over the clauses not yet satisfied that hold
it, of either sign, of 2^-n for a clause with n literals not yet false),
then the smallest. A component without kept variables, or a branch that
leaves none, is one satisfiability check. A component of one clause
over k free variables counts 2^k - 1 if all k are kept, else 2^kept.

Before its engine is built, a count of ``MERGE_CLAUSES`` clauses or more
merges the variables that complementary binary clauses make equal, (a, b)
and (-a, -b) making a equal to -b, with a union-find kept with parity
(``_merged``; Lagniez and Marquis, AAAI 2014, do this with every
equivalent literal). Each class keeps one variable, a kept one if it has
one, and the others are no longer kept, so plain and projected counts
stay exact. ``models``, ``checker`` and the emitted files see the formula
as given.

Ranks follow a level structure, as in nested dissection (George, SIAM J.
Numer. Anal. 1973), and are set once per count. Every variable has rank
0 unless its top-level component has kept variables and more than
``WIDTH_RATIO`` variables, and the breadth-first layers of the
component's primal graph, searched from a far variable (Gibbs, Poole and
Stockmeyer 1976), each hold fewer than len(component) / WIDTH_RATIO
variables (the width test). Then each variable's rank is its layer's
depth in a recursive bisection of the layers (``rank_by_layers``), so the
search first cuts long, thin components near their middle, and its depth
grows with the width times the logarithm of the size rather than with
the size. Wide components keep pure Jeroslow-Wang decisions.

Counts are plain Python ints, so arbitrarily large totals are exact. Every
search runs on an explicit stack, so its depth is not bound by Python's
recursion limit. Within one count, each component's count is cached under
the exact key of its clause ids and variables, so a component that the
search reaches again along another branch is counted once; the cache is
emptied when it grows past ``CACHE_BYTES``. A walk of leaves or of layers
checks the clock every 64 steps, and a count as its search starts and once
its turns and the sizes of the components it branched on pass 4096; past
the innermost ``time_limit`` (math.inf outside all) they raise ``SearchTimeout``.
"""

import math
import time
from array import array
from contextlib import contextmanager
from itertools import chain, compress
from operator import neg

# the size past which a count empties its component cache: each entry is
# taken to cost its key's bytes plus CACHE_ENTRY_BYTES for the tuple, the two
# bytes objects and the dict slot
CACHE_BYTES = 1 << 24
CACHE_ENTRY_BYTES = 200

# a clause with this many literals not yet false, or more, weighs 1 in the
# decision score
WEIGHT_CAP = 24

# a count ranks the variables of a top-level component with more than this
# many variables, unless one of its layers holds its size over this or more
WIDTH_RATIO = 16

# a count merges equal variables in a formula of this many clauses or more;
# below it the merge takes about as long as the whole search it could save
MERGE_CLAUSES = 64

# time.monotonic() deadline and seconds of the innermost time_limit, else inf
_deadline = _seconds = math.inf


class SearchTimeout(RuntimeError):
    """A search ran past the limit set by ``time_limit``."""


@contextmanager
def time_limit(seconds: float | None):
    """Make every search in the block raise ``SearchTimeout`` once ``seconds``
    have passed from entering it, as it starts or runs, and every external
    counter call in it stop at that deadline (BackendTimeout). It replaces
    any enclosing limit; None and math.inf set none, NaN raises ValueError."""
    global _deadline, _seconds
    limit = math.inf if seconds is None else seconds
    if math.isnan(limit):
        raise ValueError("time limit is NaN")
    saved = _deadline, _seconds
    _deadline, _seconds = time.monotonic() + limit, limit
    try:
        yield
    finally:
        _deadline, _seconds = saved


def _check_clock():
    if time.monotonic() >= _deadline:
        raise SearchTimeout(f"builtin counter timed out after {_seconds}s")


def _time_left() -> float:
    """Seconds left on the innermost ``time_limit``; math.inf outside all."""
    return _deadline - time.monotonic()


def _clocked(items: list):
    """``items`` to iterate over, the clock checked before each 4096 of them."""
    if len(items) > 4096:
        return chain.from_iterable(
            _check_clock() or items[i:i + 4096] for i in range(0, len(items), 4096)
        )
    _check_clock()
    return items


def solve_clauses(clauses, num_vars: int) -> dict[int, bool] | None:
    """The first model of ``models(clauses, num_vars)``, or None if there is
    none. Literals are assumed by unit clauses or through ``checker``."""
    return next(models(clauses, num_vars), None)


def models(clauses, num_vars: int):
    """Every model of the clause sequence ``clauses`` over variables
    1..num_vars, once each, as a total assignment. The first sets the
    variables its search leaves free to false; their other values are
    expanded only after it has been taken."""
    engine = _started(clauses, num_vars)
    if engine is None:
        return
    value, span = engine.value, range(1, num_vars + 1)
    for _ in engine.leaves(range(len(engine.clauses))):
        model = {var: value[var] > 0 for var in span}
        _check_clock()
        yield model
        free = [var for var in span if not value[var]]
        for mask in range(1, 1 << len(free)):
            _check_clock()
            yield model | {var: bool(mask >> i & 1) for i, var in enumerate(free)}


def checker(clauses, num_vars: int):
    """A test of literal lists: whether ``clauses`` over variables 1..num_vars
    have a model that makes the literals true (ValueError on a literal 0 or
    beyond num_vars), on one engine that each test assigns, searches, undoes."""
    engine = _started(clauses, num_vars)
    if engine is not None:
        mark, ids = len(engine.trail), range(len(engine.clauses))

    def test(lits) -> bool:
        lits = list(lits)
        if lits and (0 in lits or min(lits) < -num_vars or max(lits) > num_vars):
            raise ValueError(f"a literal is 0 or exceeds num_vars={num_vars}")
        if engine is None:
            return False
        found = engine.assign(lits) and engine.satisfiable(ids)
        engine.undo(mark)
        return found

    return test


def count_models(formula) -> int:
    """Exact number of models of the ``CnfFormula`` over its num_vars variables."""
    return _count_from(formula, ())


def projected_count(formula, project_out) -> int:
    """Number of distinct assignments to the kept variables (those not in
    ``project_out``) extendable to a model of the formula. ``project_out``
    is any iterable of variables, repeats allowed, and is walked once."""
    return _count_from(formula, project_out)


def _count_from(formula, out) -> int:
    kept = bytearray([1]) * (2 * formula.num_vars + 1)
    for var in out:  # checked as cleared: a generator is walked once
        if not 1 <= var <= formula.num_vars:
            raise ValueError(f"projected variable {var} out of range")
        kept[var] = kept[-var] = 0
    engine = _started(formula.clauses, formula.num_vars, kept)
    return 0 if engine is None else engine.count(kept)


def _merged(clauses: list, num_vars: int, kept: bytearray) -> list | None:
    """``clauses`` with each class of equal variables replaced by its
    representative, and ``kept`` cleared on the others; rewritten clauses
    lose repeated literals and tautologies. None if a class holds x and -x."""
    # (a, b) is a * m + b with |a| <= |b|: (-a, -b) and (-b, -a) are its negation
    m = 2 * num_vars + 1
    keys = [
        a * m + b if a * a <= b * b else b * m + a
        for a, b in compress(_clocked(clauses), map((2).__eq__, map(len, clauses)))
    ]
    found = list(set(keys).intersection(map(neg, filter((0).__gt__, keys))))
    if not found:
        return clauses
    # up[x]: a literal equal to x, x itself at a root; up[-x] is -up[x]
    up = array("q", chain(range(num_vars + 1), range(-num_vars, 0)))

    def find(lit: int) -> int:
        """The root literal equal to ``lit``, now linked from each literal
        on the way."""
        path = []
        while up[lit] != lit:
            path.append(lit)
            lit = up[lit]
        for x in path:
            up[x], up[-x] = lit, -lit
        return lit

    away = []  # each variable linked below a root, in the order linked
    for key in _clocked(found):
        a = (key + num_vars) // m
        a, b = find(a), find(a * m - key)  # a == -(key - a * m)
        if a == -b:
            return None
        if a != b:
            if kept[b] or not kept[a]:
                a, b = b, a
            away.append(abs(b))
            up[b], up[-b] = a, -a
    # a variable is linked to a root, or to one linked after it
    for v in _clocked(away[::-1]):
        up[v] = root = up[up[v]]
        up[-v] = -root
        kept[v] = kept[-v] = 0
    merged = []  # a clause left as it is stays the same object
    for c in _clocked(clauses):
        if len(c) == 2:
            a, b = up[c[0]], up[c[1]]
            if a == b:
                merged.append((a,))
            elif a != -b:
                merged.append(c if a == c[0] and b == c[1] else (a, b))
            continue
        d = tuple(map(up.__getitem__, c))
        if d == c:
            merged.append(c)
        elif (lits := set(d)).isdisjoint(map(neg, d)):
            merged.append(d if len(lits) == len(d) else tuple(dict.fromkeys(d)))
    return merged


def _started(clauses, num_vars: int, kept: bytearray | None = None):
    """A ``_Trail`` over ``clauses``, ``_merged`` first if ``kept`` is given
    and there are ``MERGE_CLAUSES`` clauses or more, with the literals of
    its unit clauses made true and propagated; None if a clause is empty or
    propagation conflicts. ValueError on a literal 0 or beyond num_vars.
    ``SearchTimeout`` past the deadline: no search starts then."""
    _check_clock()
    clauses = list(clauses)
    if max(map(abs, chain.from_iterable(clauses)), default=0) > num_vars:
        raise ValueError(f"a literal exceeds num_vars={num_vars}")
    if not all(chain.from_iterable(clauses)):
        raise ValueError("0 is not a literal")
    if kept is not None and len(clauses) >= MERGE_CLAUSES:
        clauses = _merged(clauses, num_vars, kept)
        if clauses is None:
            return None
    engine = _Trail(clauses, num_vars)
    if all(clauses) and engine.assign([c[0] for c in clauses if len(c) == 1]):
        return engine
    return None


class _Trail:
    """A clause list with one assignment, kept on a trail.

    ``value[lit]`` is 1 when ``lit`` is true, -1 when false and 0 when its
    variable is free; a literal indexes the per-literal lists directly,
    negative ones from the end. ``ntrue[c]`` counts the true literals of
    clause ``c`` and ``nfree[c]`` its literals not yet false, so ``c`` is
    satisfied when ``ntrue[c]`` is nonzero and unit when it is zero and
    ``nfree[c]`` is one. The marks, clause weights and variable ranks that
    ``split`` uses are allocated on its first call, every rank 0.
    """

    __slots__ = (
        "clauses", "num_vars", "occ", "value", "ntrue", "nfree", "trail",
        "seen_v", "seen_c", "weight", "stamp", "rank",
    )

    def __init__(self, clauses: list, num_vars: int):
        self.clauses = clauses
        self.num_vars = num_vars
        self.occ = occ = [[] for _ in range(2 * num_vars + 1)]
        for c, clause in enumerate(_clocked(clauses)):
            for lit in clause:
                occ[lit].append(c)
        self.value = [0] * (2 * num_vars + 1)
        self.ntrue = [0] * len(clauses)
        self.nfree = list(map(len, clauses))
        self.trail = []
        self.seen_c = None

    def assign(self, queue: list) -> bool:
        """Make the literals of ``queue`` true in turn, appending each unit
        literal that follows, until none is left. Returns False on a
        conflict; what was made true stays on the trail either way."""
        clauses, occ, value = self.clauses, self.occ, self.value
        ntrue, nfree, trail = self.ntrue, self.nfree, self.trail
        for lit in queue:
            state = value[lit]
            if state:
                if state < 0:
                    return False
                continue
            value[lit] = 1
            value[-lit] = -1
            trail.append(lit)
            for c in occ[lit]:
                ntrue[c] += 1
            conflict = False
            for c in occ[-lit]:
                left = nfree[c] - 1
                nfree[c] = left
                if left < 2 and not ntrue[c]:
                    if not left:
                        conflict = True
                        continue
                    for x in clauses[c]:
                        if not value[x]:
                            queue.append(x)
                            break
            if conflict:
                return False
        return True

    def undo(self, mark: int) -> None:
        """Free every literal made true after the trail had ``mark``
        entries."""
        occ, value, ntrue, nfree, trail = (
            self.occ, self.value, self.ntrue, self.nfree, self.trail
        )
        for lit in trail[mark:]:
            value[lit] = value[-lit] = 0
            for c in occ[lit]:
                ntrue[c] -= 1
            for c in occ[-lit]:
                nfree[c] += 1
        del trail[mark:]

    def leaves(self, ids):
        """Search the clauses ``ids`` (ascending): branch on the last free
        literal of the first clause not yet satisfied, true first. Yields
        at each leaf, with every clause of ``ids`` satisfied and the leaf's
        assignment on the trail. No two leaves share a model. The caller
        undoes the trail afterwards."""
        ntrue, value, clauses, trail = self.ntrue, self.value, self.clauses, self.trail
        steps = 0
        stack = []  # (trail mark, variable, position) per open decision
        pos, end = 0, len(ids)
        while True:
            while pos < end and ntrue[ids[pos]]:
                pos += 1
            if pos == end:
                yield True
                ok = False
            else:
                steps += 1
                if not steps & 63:
                    _check_clock()
                for lit in reversed(clauses[ids[pos]]):
                    if not value[lit]:
                        break
                var = lit if lit > 0 else -lit
                stack.append((len(trail), var, pos))
                ok = self.assign([var])
            while not ok:
                if not stack:
                    return
                mark, var, pos = stack.pop()
                self.undo(mark)
                ok = self.assign([-var])

    def satisfiable(self, ids) -> bool:
        mark = len(self.trail)
        found = any(self.leaves(ids))
        self.undo(mark)
        return found

    def count(self, kept: bytearray) -> int:
        """Number of assignments to the free variables with ``kept[v]`` set
        that extend the trail to a model. The top-level components are
        ranked (``rank_by_layers``) before the search starts.

        Each stack entry is a component being branched on, as the list [key,
        kept variable count, variables, the decision literal of the branch
        being taken, trail mark, sum of the branches done, and its parent's
        components, the index of the next of them and their product so
        far]."""
        trail, nfree = self.trail, self.nfree
        work = 4096  # toward a clock read: full, so the search starts with one
        cache, cache_bytes = {}, 0
        every = range(1, self.num_vars + 1)
        comps = self.split(every, kept)
        ranked = [
            self.rank_by_layers(items)
            for _, nkept, _, items in comps
            if nkept and len(items) > WIDTH_RATIO
        ]
        if any(ranked):
            comps = self.split(every, kept)
        free = sum(kept[v] for v in every if not self.value[v])
        product = 1 << (free - sum(comp[1] for comp in comps))
        index = 0
        stack = []
        while True:
            work += 1
            if work > 4096:
                work = 0
                _check_clock()
            if product and index < len(comps):
                key, nkept, var, items = comps[index]
                index += 1
                if len(key[0]) == 4:  # one clause: 2^kept, less the one
                    # falsifying assignment if every variable is kept, unless
                    # a repeated literal or a tautology leaves it to search
                    nvars = len(key[1]) >> 2
                    if nkept < nvars or nfree[array("i", key[0])[0]] == nvars:
                        product = (product << nkept) - product * (nkept == nvars)
                        continue
                sub = cache.get(key)
                if sub is None and not nkept:
                    sub = cache[key] = int(self.satisfiable(items))
                if sub is not None:
                    product *= sub
                    continue
                node = [key, nkept, items, var, len(trail), 0, comps, index, product]
                stack.append(node)
            else:
                if not stack:
                    return product
                node = stack[-1]
                self.undo(node[4])
                node[5] += product
                if node[3] > 0:
                    node[3] = -node[3]
                else:
                    stack.pop()
                    key, total = node[0], node[5]
                    if cache_bytes > CACHE_BYTES:
                        cache.clear()
                        cache_bytes = 0
                    cache[key] = total
                    cache_bytes += CACHE_ENTRY_BYTES + len(key[0]) + len(key[1])
                    comps, index, product = node[6], node[7], node[8] * total
                    continue
            # take the branch node[3] of the component on top of the stack;
            # what it makes true lies in the component
            mark, index = node[4], 0
            work += len(node[2])
            if not self.assign([node[3]]):
                comps, product = (), 0
            elif len(trail) - mark == len(node[2]):
                comps, product = (), 1
            else:
                left = node[1] - sum(map(kept.__getitem__, trail[mark:]))
                if left:
                    comps = self.split(node[2], kept)
                    product = 1 << (left - sum(comp[1] for comp in comps))
                else:  # no kept variable left: one satisfiability check
                    ids = memoryview(node[0][0]).cast("i")
                    comps, product = (), int(self.satisfiable(ids))

    def split(self, seeds, kept) -> list:
        """The components of the clauses not yet satisfied that hold a free
        variable among ``seeds`` (ascending), in order of their smallest
        variable. Free variables in no such clause are left out.

        Each component is (key, kept variable count, decision variable,
        items). The key is the bytes of its sorted clause ids and of its
        sorted variables. The decision variable
        is the kept variable of lowest ``rank``, then of highest score, then
        the smallest: each of its clauses adds ``weight[n]``, exactly
        2^(WEIGHT_CAP - n) for a clause with n literals not yet false (n
        capped at WEIGHT_CAP). Items are its sorted variables, or its sorted
        clause ids when it has no kept variable."""
        if self.seen_c is None:
            self.seen_v, self.seen_c = [0] * len(self.value), [0] * len(self.clauses)
            self.rank = [0] * (self.num_vars + 1)
            longest = max(map(len, self.clauses), default=0)
            self.weight = [1 << max(WEIGHT_CAP - n, 0) for n in range(longest + 1)]
            self.stamp = 0
        value, ntrue, clauses, occ = self.value, self.ntrue, self.clauses, self.occ
        seen_v, seen_c = self.seen_v, self.seen_c  # by literal and by clause
        nfree, weight, rank = self.nfree, self.weight, self.rank
        self.stamp = stamp = self.stamp + 1
        comps = []
        for seed in seeds:
            if value[seed] or seen_v[seed] == stamp:
                continue
            seen_v[seed] = seen_v[-seed] = stamp
            vs, cs = [seed], []
            var = best = nkept = 0
            low = len(rank)
            for v in vs:
                k = 0
                for occs in (occ[v], occ[-v]):
                    for c in occs:
                        if ntrue[c]:
                            continue
                        k += weight[nfree[c]]
                        if seen_c[c] != stamp:
                            seen_c[c] = stamp
                            cs.append(c)
                            for lit in clauses[c]:
                                if seen_v[lit] != stamp and not value[lit]:
                                    seen_v[lit] = seen_v[-lit] = stamp
                                    vs.append(lit if lit > 0 else -lit)
                if kept[v]:
                    nkept += 1
                    r = rank[v]
                    if r < low or r == low and (k > best or k == best and v < var):
                        var, best, low = v, k, r
            if not cs:
                continue
            cs.sort()
            vs.sort()
            key = (array("i", cs).tobytes(), array("i", vs).tobytes())
            items = memoryview(key[1] if nkept else key[0]).cast("i")
            comps.append((key, nkept, var, items))
        return comps

    def rank_by_layers(self, vs) -> bool:
        """Rank the variables ``vs`` of one component by the layers 0..D of
        a breadth-first search of the primal graph of its clauses not yet
        satisfied, from the last variable that a search from ``vs[0]``
        reached. Each layer separates those before it from those after
        it; a variable's rank is its layer's depth in a recursive
        bisection of 0..D (the middle layer 0, the middles of the halves
        1, ...). Returns False, ranking nothing, when a layer holds
        len(vs) / WIDTH_RATIO variables or more."""
        value, ntrue, nfree, clauses, occ = (
            self.value, self.ntrue, self.nfree, self.clauses, self.occ
        )
        limit = -(-len(vs) // WIDTH_RATIO)
        # a clause with more than limit free variables joins them all, so the
        # component holds a clique of more than limit variables and is wide
        for v in vs:
            for c in occ[v] + occ[-v]:
                if nfree[c] > limit and not ntrue[c]:
                    return False
        far = vs[0]
        for _ in range(2):
            depth, reached = {far: 0}, [far]
            for steps, v in enumerate(reached):
                if not steps & 63:
                    _check_clock()
                d = depth[v] + 1
                for c in occ[v] + occ[-v]:
                    if not ntrue[c]:
                        for x in clauses[c]:
                            if not value[x] and abs(x) not in depth:
                                depth[abs(x)] = d
                                reached.append(abs(x))
            far = reached[-1]
        sizes = [0] * (depth[far] + 1)
        for d in depth.values():
            sizes[d] += 1
        if max(sizes) >= limit:
            return False
        level, spans = [0] * len(sizes), [(0, len(sizes) - 1, 0)]
        for low, high, r in spans:
            if low <= high:
                mid = (low + high) // 2
                level[mid] = r
                spans += (low, mid - 1, r + 1), (mid + 1, high, r + 1)
        rank = self.rank
        for v, d in depth.items():
            rank[v] = level[d]
        return True
