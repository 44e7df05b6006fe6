"""Independent brute-force oracles.

Nothing here touches stabilizer chains: closures are plain BFS over
products, block systems come from enumerating every equal-size partition,
and the normal-subgroup lattice from enumerating every subgroup.  Local
groups on tree spheres come from listing the reduced words and rewriting
each one letter by letter, and complete data from a walk over the corner
map that keeps corners and images as pairs in dicts.  Automaton rows are
read straight off a datum's squares, and the survey's keys off an
automaton's rows, as the least over every letter relabelling and state
order.  These are the reference answers the engine is checked
against.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations


def compose_t(p, q):
    """p after q, same convention as the engine: result[x] = p[q[x]]."""
    return tuple(p[i] for i in q)


def _inverse_t(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def closure_elements(gens, degree) -> set[tuple]:
    """All products of the generators, by breadth-first closure."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    gens = [tuple(g) for g in gens]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                p = compose_t(e, g)
                if p not in seen:
                    seen.add(p)
                    new.append(p)
        frontier = new
    return seen


def normal_closure_bruteforce(gens, degree, seeds) -> set[tuple]:
    """The subgroup the conjugates x⁻¹sx generate, for s a seed and x any
    element of the closure of `gens`: the smallest subgroup containing the
    seeds and closed under conjugation by the generators.  The seeds need
    not lie in that closure."""
    conjugates = {compose_t(_inverse_t(x), compose_t(tuple(s), x))
                  for x in closure_elements(gens, degree) for s in seeds}
    return closure_elements(conjugates, degree)


def orbit_of(gens, degree, point) -> set[int]:
    seen = {point}
    queue = [point]
    while queue:
        x = queue.pop()
        for g in gens:
            y = g[x]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def transitive_bruteforce(gens, degree) -> bool:
    return len(orbit_of(gens, degree, 0)) == degree


def two_transitive_bruteforce(gens, degree) -> bool:
    """Single orbit on ordered pairs of distinct points."""
    if degree < 2:
        return False
    pairs = {(a, b) for a in range(degree) for b in range(degree) if a != b}
    seen = {(0, 1)}
    queue = [(0, 1)]
    while queue:
        a, b = queue.pop()
        for g in gens:
            im = (g[a], g[b])
            if im not in seen:
                seen.add(im)
                queue.append(im)
    return seen == pairs


def _equal_partitions(points, block_size):
    """All partitions of the point list into blocks of the given size."""
    points = list(points)
    if not points:
        yield []
        return
    first = points[0]
    rest = points[1:]
    for mates in combinations(rest, block_size - 1):
        block = (first,) + mates
        remaining = [p for p in rest if p not in mates]
        for sub in _equal_partitions(remaining, block_size):
            yield [block] + sub


def invariant_partitions_bruteforce(gens, degree) -> list[tuple]:
    """Every non-trivial equal-block partition preserved by all generators."""
    systems = []
    for size in range(2, degree):
        if degree % size:
            continue
        for partition in _equal_partitions(range(degree), size):
            blocks = {frozenset(b) for b in partition}
            if all(frozenset(g[x] for x in b) in blocks for b in blocks for g in gens):
                systems.append(tuple(sorted(tuple(sorted(b)) for b in blocks)))
    return systems


def primitive_bruteforce(gens, degree) -> bool:
    return not invariant_partitions_bruteforce(gens, degree)


def _element_table(gens, degree):
    """Element list, index map and multiplication table of the closure."""
    elements = sorted(closure_elements(gens, degree))
    index = {e: i for i, e in enumerate(elements)}
    mul = [[index[compose_t(a, b)] for b in elements] for a in elements]
    return elements, index, mul


def _is_prime_power(n):
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True


def all_subgroups_bruteforce(gens, degree) -> list[frozenset]:
    """Every subgroup of the closure, as a frozenset of image tuples.

    Closure enumeration over the multiplication table, growing one
    prime-power-order generator at a time (every subgroup chain refines to
    such steps, since each element is a product of its own prime-power
    powers).  One generator per cyclic subgroup is tried, and x is not
    tried on a subgroup S once some y with x in SyS was: then
    <S, x> = <S, y>."""
    elements, index, mul = _element_table(gens, degree)
    n = len(elements)
    e_idx = index[tuple(range(degree))]
    candidates = []
    cyclic_seen = set()
    for x in range(n):
        powers = {x}
        y = x
        while y != e_idx:
            y = mul[y][x]
            powers.add(y)
        cyclic = frozenset(powers)
        if _is_prime_power(len(cyclic)) and cyclic not in cyclic_seen:
            cyclic_seen.add(cyclic)
            candidates.append(x)

    def closure_idx(gen_list):
        seen = {e_idx}
        frontier = [e_idx]
        while frontier:
            new = []
            for a in frontier:
                row = mul[a]
                for g in gen_list:
                    b = row[g]
                    if b not in seen:
                        seen.add(b)
                        new.append(b)
            frontier = new
        return frozenset(seen)

    trivial = frozenset({e_idx})
    found: dict[frozenset, tuple] = {trivial: ()}
    frontier = [(trivial, ())]
    while frontier:
        new = []
        for sub, sub_gens in frontier:
            tried = set(sub)
            for x in candidates:
                if x in tried:
                    continue
                x_sub = [mul[x][h] for h in sub]
                tried.update(mul[h][y] for h in sub for y in x_sub)
                grown_gens = sub_gens + (x,)
                grown = closure_idx(grown_gens)
                if grown not in found:
                    found[grown] = grown_gens
                    new.append((grown, grown_gens))
        frontier = new
    return sorted((frozenset(elements[i] for i in sub) for sub in found),
                  key=lambda s: (len(s), sorted(s)))


def normal_subgroups_bruteforce(gens, degree) -> list[frozenset]:
    gens = [tuple(g) for g in gens]
    invs = [_inverse_t(g) for g in gens]
    normal = []
    for sub in all_subgroups_bruteforce(gens, degree):
        if all(compose_t(inv, compose_t(h, g)) in sub
               for g, inv in zip(gens, invs) for h in sub):
            normal.append(sub)
    return normal


def normal_subgroups_via_class_unions(gens, degree) -> list[frozenset]:
    """Second, lattice-free route: a normal subgroup is exactly a union of
    conjugacy classes containing the identity that is closed under
    multiplication.  Checks every class subset, so only usable when the
    class count is small."""
    from itertools import combinations as comb
    elements, index, mul = _element_table(gens, degree)
    n = len(elements)
    gens_idx = [index[tuple(g)] for g in gens]
    inv_idx = [0] * n
    identity = tuple(range(degree))
    e_idx = index[identity]
    for i, e in enumerate(elements):
        invp = [0] * degree
        for a, b in enumerate(e):
            invp[b] = a
        inv_idx[i] = index[tuple(invp)]
    # conjugacy classes by closing under generator conjugation
    class_of = [-1] * n
    classes = []
    for x in range(n):
        if class_of[x] != -1:
            continue
        cid = len(classes)
        members = {x}
        queue = [x]
        class_of[x] = cid
        while queue:
            y = queue.pop()
            for g in gens_idx:
                c = mul[mul[inv_idx[g]][y]][g]
                if class_of[c] == -1:
                    class_of[c] = cid
                    members.add(c)
                    queue.append(c)
        classes.append(frozenset(members))
    if len(classes) > 16:
        raise ValueError(f"too many classes ({len(classes)}) for subset search")
    non_identity = [c for c in classes if e_idx not in c]
    normal = []
    for r in range(len(non_identity) + 1):
        for chosen in comb(non_identity, r):
            union = set(classes[class_of[e_idx]])
            for c in chosen:
                union |= c
            if all(mul[a][b] in union for a in union for b in union):
                normal.append(frozenset(elements[i] for i in union))
    return sorted(normal, key=lambda s: (len(s), sorted(s)))


def minimal_normal_bruteforce(gens, degree) -> list[frozenset]:
    """Minimal non-trivial normal subgroups from the full lattice."""
    normal = [n for n in normal_subgroups_bruteforce(gens, degree) if len(n) > 1]
    return [n for n in normal
            if not any(len(m) < len(n) and m < n for m in normal)]


def _quotient_spectrum_t(big, small) -> set[int]:
    """Element orders of big/small: for each x, the least d with x^d in small."""
    spectrum = set()
    for x in big:
        d, y = 1, x
        while y not in small:
            y = compose_t(y, x)
            d += 1
        spectrum.add(d)
    return spectrum


def section_bruteforce(m_gens, s_gens, degree) -> bool:
    """Whether the group generated by m_gens is a section H/K of the group
    generated by s_gens (on `degree` points): some subgroup H and normal
    K of H with |H/K| = |m| whose quotient has m's element-order spectrum.

    Every subgroup comes from all_subgroups_bruteforce; the normal K are
    the listed subgroups inside H that every element of H conjugates to
    themselves.  Order plus element-order spectrum identifies the simple
    groups this is used with."""
    m_gens = [tuple(g) for g in m_gens]
    m_elements = closure_elements(m_gens, len(m_gens[0]))
    om = len(m_elements)
    spec_m = _quotient_spectrum_t(m_elements, {tuple(range(len(m_gens[0])))})
    subgroups = all_subgroups_bruteforce(s_gens, degree)
    for h in subgroups:
        if len(h) % om:
            continue
        conjugators = [(x, _inverse_t(x)) for x in h]
        for k in subgroups:
            if (len(k) * om == len(h) and k <= h
                    and all(compose_t(compose_t(x, y), x_inv) in k
                            for x, x_inv in conjugators for y in k)
                    and _quotient_spectrum_t(h, k) == spec_m):
                return True
    return False


def sphere_words(alphabet, k) -> list[tuple[int, ...]]:
    """The reduced words of length k over the alphabet, in lexicographic
    order."""
    words = [(a,) for a in range(alphabet.size)]
    for _ in range(k - 1):
        words = [w + (c,) for w in words
                 for c in range(alphabet.size) if c != alphabet.inv(w[-1])]
    return words


def act_word(aut, state, word) -> tuple[int, ...]:
    """Rewrite a word letter by letter: emit out[s][x], continue in nxt[s][x]."""
    out = []
    s = state
    for x in word:
        out.append(aut.out[s][x])
        s = aut.nxt[s][x]
    return tuple(out)


def local_group_generators(aut, k) -> tuple[tuple[int, ...], ...]:
    """Each state's permutation of the depth-k sphere, as the positions of
    the rewritten words in `sphere_words` order."""
    words = sphere_words(aut.letters, k)
    index = {w: i for i, w in enumerate(words)}
    return tuple(tuple(index[act_word(aut, s, w)] for w in words)
                 for s in range(aut.states.size))


def horizontal_rows(d):
    """The `out` and `nxt` rows of the horizontal automaton, read straight
    off the squares: a square (a, b, a2, b2) reads a . b = b2 . a2, so
    state a sends letter b to b2 and moves to a2."""
    out = [[None] * d.m for _ in range(d.n)]
    nxt = [[None] * d.m for _ in range(d.n)]
    for a, b, a2, b2 in d.squares:
        out[a][b], nxt[a][b] = b2, a2
    return tuple(map(tuple, out)), tuple(map(tuple, nxt))


@cache
def standard_relabellings(involution) -> tuple[tuple[int, ...], ...]:
    """Every letter bijection σ that carries the involution to the
    standard one, σ(inv x) = σ(x) xor 1, found among all permutations."""
    width = len(involution)
    return tuple(sigma for sigma in permutations(range(width))
                 if all(sigma[involution[x]] == sigma[x] ^ 1 for x in range(width)))


def relabelled(aut, sigma, order=None):
    """The `out` and `nxt` rows of the automaton with letter x renamed
    sigma[x], so that a state sends sigma[x] to sigma[out[s][x]], and with
    its states renumbered so that the new state r is the old state
    order[r]."""
    order = list(range(aut.states.size)) if order is None else list(order)
    new = {s: r for r, s in enumerate(order)}
    out = [[0] * len(sigma) for _ in order]
    nxt = [[0] * len(sigma) for _ in order]
    for r, s in enumerate(order):
        for x in range(len(sigma)):
            out[r][sigma[x]] = sigma[aut.out[s][x]]
            nxt[r][sigma[x]] = new[aut.nxt[s][x]]
    return tuple(map(tuple, out)), tuple(map(tuple, nxt))


def survey_key(out, nxt) -> bytes:
    """The bytes the survey keys rows on the standard involution by, in
    their own state order: the number of letters, then for each state its
    `out` row followed by the `out` rows of its next states."""
    rows = [bytes(row) for row in out]
    return bytes([len(rows[0])]) + b"".join(
        [rows[s] + b"".join([rows[t] for t in nxt[s]]) for s in range(len(rows))])


def canonical_form(aut, sigmas=None):
    """The least `survey_key` over the letter bijections `sigmas` (by
    default every one that carries the involution to the standard one)
    and over every renumbering of the states, with the `out` and `nxt`
    rows that have it.  A state's bytes name no state, so a renumbering
    only reorders them, and they all have one length, so the least
    concatenation is that of the least tuple of them."""
    best = None
    for sigma in standard_relabellings(aut.letters.involution) if sigmas is None else sigmas:
        body = survey_key(*relabelled(aut, sigma))
        size = len(sigma) * (len(sigma) + 1)
        states = [body[k:k + size] for k in range(1, len(body), size)]
        key = body[:1] + b"".join(min(permutations(states)))
        if best is None or key < best[0]:
            best = (key, sigma, states)
    key, sigma, states = best
    order = next(order for order in permutations(range(len(states)))
                 if key[1:] == b"".join([states[s] for s in order]))
    return (key, *relabelled(aut, sigma, order))


def complete_data_walk(horiz, vert):
    """The square lists of all complete orientation-closed data over the
    two alphabets, in the order the engine's table-driven walk yields them.

    Each step assigns an image to the first uncovered corner, merges the
    four assignments orientation closure forces into a dict, drops the
    guess when a corner gets two images or an image is used twice, and
    recurses; corners and images stay (a, b) pairs throughout."""
    n, m = horiz.size, vert.size
    h_inv, v_inv = horiz.involution, vert.involution
    corners = [(a, b) for a in range(n) for b in range(m)]
    corner_idx = {c: i for i, c in enumerate(corners)}
    assign = [None] * (n * m)
    used_img = [False] * (n * m)

    def orbit_assignments(a, b, a2, b2):
        forced = [
            ((a, b), (a2, b2)),
            ((h_inv[a], b2), (h_inv[a2], b)),
            ((a2, v_inv[b]), (a, v_inv[b2])),
            ((h_inv[a2], v_inv[b2]), (h_inv[a], v_inv[b])),
        ]
        merged = {}
        for corner, image in forced:
            if merged.get(corner, image) != image:
                return None
            merged[corner] = image
        images = list(merged.values())
        if len(set(images)) != len(images):
            return None
        return list(merged.items())

    def search(start):
        pos = start
        while pos < len(corners) and assign[pos] is not None:
            pos += 1
        if pos == len(corners):
            yield tuple((a, b, *assign[corner_idx[(a, b)]]) for a, b in corners)
            return
        a, b = corners[pos]
        for a2 in range(n):
            for b2 in range(m):
                orbit = orbit_assignments(a, b, a2, b2)
                if orbit is None:
                    continue
                if any(assign[corner_idx[corner]] is not None
                       or used_img[image[0] * m + image[1]]
                       for corner, image in orbit):
                    continue
                for corner, image in orbit:
                    assign[corner_idx[corner]] = image
                    used_img[image[0] * m + image[1]] = True
                yield from search(pos + 1)
                for corner, image in orbit:
                    assign[corner_idx[corner]] = None
                    used_img[image[0] * m + image[1]] = False

    yield from search(0)
