"""Decision levels from a tree decomposition of a graph.

A model counter that decides first on the variables near the root of a
tree decomposition cuts each component into parts of about half its size
(sharpSAT-TD: Korhonen and Jarvisalo, CP 2021). ``centroid_levels``
eliminates a graph greedily, a vertex of least degree first, and levels
the elimination tree by a centroid decomposition: a graph of n vertices
gets at most about log2(n) + 1 levels, and a search that decides level by
level on a graph of width w is O(w log n) deep, where the elimination
order alone can give a path.
"""


def centroid_levels(adj: dict, limit: int, check) -> list | None:
    """[(vertex, level)] for every vertex of the connected graph ``adj``
    (vertex -> set of its neighbours; the sets are consumed).

    Eliminates a vertex of least degree (of those, the one that reached
    that degree last) until none is left, joining its neighbours to each
    other; each vertex's parent in the elimination tree is its neighbour
    eliminated next. Its level is its depth in a centroid decomposition of
    that tree, 0 at the centroid of the whole. Returns None as soon as
    every vertex left has degree ``limit`` or more. ``check`` is called
    every 64 steps and may raise to stop the work."""
    steps = 0
    buckets = [[] for _ in range(limit)]  # vertices by degree, below limit
    for v, near in adj.items():
        if len(near) < limit:
            buckets[len(near)].append(v)
    order, low = [], 0  # order: (vertex, its neighbours when eliminated)
    while adj:
        while not buckets[low]:
            low += 1
            if low == limit:
                return None
        v = buckets[low].pop()
        near = adj.get(v)
        if near is None or len(near) != low:
            continue
        del adj[v]
        order.append((v, near))
        for u in near:
            steps += 1  # one step per neighbour joined to the others
            if not steps & 63:
                check()
            other = adj[u]
            other.discard(v)
            other |= near
            other.discard(u)
            degree = len(other)
            if degree < limit:
                buckets[degree].append(u)
                low = min(low, degree)
    # the tree over positions in the elimination order, root size - 1
    position = {v: i for i, (v, _) in enumerate(order)}
    tree = [[] for _ in order]
    for i, (_, near) in enumerate(order):
        if near:
            parent = min(map(position.__getitem__, near))
            tree[i].append(parent)
            tree[parent].append(i)
    size = len(order)
    level, up, below = [-1] * size, [-1] * size, [1] * size
    pieces = [(size - 1, 0)]
    while pieces:
        steps += 1
        if not steps & 63:
            check()
        start, depth = pieces.pop()
        up[start], below[start] = -1, 1
        reached = [start]
        for x in reached:
            above = up[x]
            for y in tree[x]:
                if y != above and level[y] < 0:
                    up[y], below[y] = x, 1
                    reached.append(y)
        for x in reversed(reached[1:]):
            below[up[x]] += below[x]
        centre, half = start, len(reached) // 2
        while True:
            for y in tree[centre]:
                if y != up[centre] and level[y] < 0 and below[y] > half:
                    centre = y
                    break
            else:
                break
        level[centre] = depth
        pieces += [(y, depth + 1) for y in tree[centre] if level[y] < 0]
    return [(v, depth) for (v, _), depth in zip(order, level)]
