"""Root system construction, Weyl group enumeration and subset helpers."""

import dataclasses
import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylq import charquasi, rootsys
from weylq.charquasi import face_roots, face_weyl_order
from weylq.errors import InconsistencyError, ResourceCapError, ValidationError
from weylq.rootsys import (
    MAX_WEYL_TABLE_BYTES,
    build_root_system,
    check_weyl_cap,
    enumerate_ideals,
    enumerate_weyl,
    extended_base_indices,
    height,
    lower_closure,
    normalize_subset,
    poset_leq,
    root_index,
    signed_roots,
    subset_complement,
    subset_from_roots,
)

import oracles
from oracles import classify_length, full_weyl, is_ideal, omega_positions, weyl_from_word, weyl_rows

SMALL = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]


@pytest.fixture(scope="module")
def g2():
    return build_root_system("G", 2)


@pytest.fixture(scope="module")
def a3():
    return build_root_system("A", 3)


@pytest.mark.parametrize(
    "family, rank",
    [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("F", 5), ("G", 1), ("G", 3)],
)
def test_rejected_ranks(family, rank):
    with pytest.raises(ValidationError):
        build_root_system(family, rank)


def test_rejected_family_and_rank_types():
    with pytest.raises(ValidationError):
        build_root_system("Z", 2)
    with pytest.raises(ValidationError):
        build_root_system("A", "2")
    with pytest.raises(ValidationError):
        build_root_system("A", True)


@pytest.mark.parametrize(
    "family, rank, n_pos, h, f, order",
    [
        ("A", 1, 1, 2, 2, 2),
        ("A", 2, 3, 3, 3, 6),
        ("A", 3, 6, 4, 4, 24),
        ("A", 4, 10, 5, 5, 120),
        ("B", 2, 4, 4, 2, 8),
        ("B", 3, 9, 6, 2, 48),
        ("C", 3, 9, 6, 2, 48),
        ("D", 4, 12, 6, 4, 192),
        ("G", 2, 6, 6, 1, 12),
        ("F", 4, 24, 12, 1, 1152),
        ("E", 6, 36, 12, 3, 51840),
        ("B", 5, 25, 10, 2, 3840),
        ("C", 5, 25, 10, 2, 3840),
        ("D", 5, 20, 8, 4, 1920),
        ("A", 7, 28, 8, 8, 40320),
        ("E", 7, 63, 18, 2, 2903040),
        ("E", 8, 120, 30, 1, 696729600),
    ],
)
def test_classical_invariants(family, rank, n_pos, h, f, order):
    rs = build_root_system(family, rank)
    assert len(rs.positive_roots) == n_pos
    assert rs.coxeter_number == h
    assert rs.index_of_connection == f
    assert rs.weyl_order == order
    # structural cross-checks tying the invariants together
    assert 2 * n_pos == rank * h
    assert sum(rs.marks) == h - 1
    assert rs.weyl_order % rs.index_of_connection == 0


@pytest.mark.parametrize("family, rank", SMALL)
def test_positive_root_order(family, rank):
    """Roots come in height-ascending order with lexicographic tie-break."""
    rs = build_root_system(family, rank)
    roots = rs.positive_roots
    assert len(set(roots)) == len(roots)
    keys = [(height(v), v) for v in roots]
    assert keys == sorted(keys)
    simples = sorted(tuple(1 if k == i else 0 for k in range(rank)) for i in range(rank))
    assert list(roots[:rank]) == simples
    assert rs.highest_root == roots[-1]
    assert rs.highest_root_index == len(roots) - 1
    assert rs.marks == rs.highest_root


def test_g2_explicit_roots(g2):
    assert g2.positive_roots == ((0, 1), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2))
    assert g2.marks == (3, 2)
    assert g2.coxeter_number == 6
    assert g2.index_of_connection == 1


def test_a3_explicit_roots(a3):
    assert a3.positive_roots == (
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
        (0, 1, 1),
        (1, 1, 0),
        (1, 1, 1),
    )


def test_b2_marks():
    assert build_root_system("B", 2).marks == (1, 2)


@pytest.mark.parametrize("family, rank", SMALL)
def test_cartan_matrix_shape(family, rank):
    rs = build_root_system(family, rank)
    for i in range(rank):
        assert rs.cartan[i][i] == 2
        for j in range(rank):
            if i != j:
                assert rs.cartan[i][j] <= 0
            assert rs.gram[i][j] == rs.gram[j][i]


@pytest.mark.parametrize(
    "family, rank, n_long, n_short",
    [("A", 3, 6, 0), ("D", 4, 12, 0), ("B", 2, 2, 2), ("B", 3, 6, 3), ("C", 3, 3, 6), ("G", 2, 3, 3), ("F", 4, 12, 12)],
)
def test_length_classes(family, rank, n_long, n_short):
    rs = build_root_system(family, rank)
    classes = [classify_length(rs, v) for v in rs.positive_roots]
    assert classes.count("long") == n_long
    assert classes.count("short") == n_short
    assert classify_length(rs, rs.highest_root) == "long"


def test_g2_length_classes(g2):
    shorts = {v for v in g2.positive_roots if classify_length(g2, v) == "short"}
    assert shorts == {(1, 0), (1, 1), (2, 1)}


def test_classify_length_norms_once(monkeypatch):
    """One classification computes two norms, not one per positive root."""
    rs = build_root_system("F", 4)
    calls = []
    norm2 = oracles.root_norm2

    def counted(system, v):
        calls.append(v)
        return norm2(system, v)

    monkeypatch.setattr(oracles, "root_norm2", counted)
    for v in rs.positive_roots:
        calls.clear()
        classify_length(rs, tuple(-c for c in v))
        assert len(calls) <= 2


@pytest.mark.parametrize("family, rank", SMALL)
def test_weyl_enumeration(family, rank):
    """One element per coset of Omega-bar, each once, the identity first."""
    rs = build_root_system(family, rank)
    table = enumerate_weyl(rs)
    elems = list(weyl_rows(table, rank + 1))
    cosets = rs.weyl_order // rs.index_of_connection
    assert len(table) == (rank + 1) * len(elems) and len(elems) == cosets
    assert len(set(elems)) == cosets
    assert elems[0] == extended_base_indices(rs)
    assert least_word(rs, elems[0]) == ()


def simple_reflection_matrices(rs):
    """Matrices of the simple reflections acting on coordinate columns:
    s_j moves coordinate j by minus the pairing with the j-th coroot."""
    mats = []
    for j in range(rs.rank):
        rows = [tuple(1 if i == k else 0 for i in range(rs.rank)) for k in range(rs.rank)]
        rows[j] = tuple((1 if i == j else 0) - rs.cartan[i][j] for i in range(rs.rank))
        mats.append(tuple(rows))
    return tuple(mats)


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def word_matrix(rs, word):
    """The product of the reflection matrices of a 1-based word."""
    gens = simple_reflection_matrices(rs)
    mat = tuple(tuple(1 if i == j else 0 for j in range(rs.rank)) for i in range(rs.rank))
    for j in word:
        mat = mat_mul(mat, gens[j - 1])
    return mat


def least_word(rs, w):
    """The lexicographically least reduced word (1-based) of an element,
    given by its extended-base images (an image-table row), from its
    simple-root images alone.

    y = w(2 rho) pairs negatively with the coroot of alpha_j exactly when
    j is a left descent of w (Humphreys, Reflection Groups and Coxeter
    Groups, 1.6-1.7), and the least reduced word begins with the smallest
    one, j; the rest is the least reduced word of s_j * w, whose pairings
    are those of s_j y: p_k - p_j * <alpha_j, alpha_k^vee>.
    """
    pairings = rho_pairings(rs, w)
    word = []
    while True:
        j = next((j for j, p in enumerate(pairings) if p < 0), None)
        if j is None:
            return tuple(word)
        word.append(j + 1)
        p = pairings[j]
        pairings = [pk - p * c for pk, c in zip(pairings, rs.cartan[j])]


def rho_pairings(rs, w):
    """The pairings of w(2 rho) with the simple coroots, from w's images of
    the simple roots; j is a left descent of w exactly when the j-th is
    negative."""
    roots = signed_roots(rs)
    rho2 = [sum(column) for column in zip(*rs.positive_roots)]
    y = [sum(c * roots[b][k] for c, b in zip(rho2, w[1:])) for k in range(rs.rank)]
    return [sum(rs.cartan[i][j] * y[i] for i in range(rs.rank)) for j in range(rs.rank)]


def parabolic_split(rs, w):
    """w = v * u with v in the subgroup generated by the first rank - 1
    simple reflections and u with no left descent among them, found by
    stripping such descents off w: a reduced word of v (1-based) and u's
    extended-base images."""
    perms = rootsys._reflection_permutations(rs)
    pairings = rho_pairings(rs, w)
    images = w
    word = []
    while True:
        j = next((j for j, p in enumerate(pairings[:-1]) if p < 0), None)
        if j is None:
            return tuple(word), images
        word.append(j + 1)
        images = tuple(perms[j][i] for i in images)
        p = pairings[j]
        pairings = [pk - p * c for pk, c in zip(pairings, rs.cartan[j])]


def weyl_act(rs, w, v):
    """Apply a Weyl element to a vector of simple-root coordinates: the
    sum of the simple roots' images weighted by the coordinates."""
    roots = signed_roots(rs)
    columns = [roots[i] for i in w[1:]]
    return tuple(
        sum(c * column[i] for c, column in zip(v, columns)) for i in range(rs.rank)
    )


def mat_act(mat, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in mat)


def _reference_weyl(rs):
    """The matrix-product closure: breadth-first from the identity, each
    level sorted by word, each product checked against every matrix seen."""
    gens = simple_reflection_matrices(rs)
    ident = word_matrix(rs, ())
    seen = {ident}
    order = [(ident, ())]
    frontier = [(ident, ())]
    while frontier:
        nxt = []
        for mat, word in frontier:
            for j in range(rs.rank):
                prod = mat_mul(mat, gens[j])
                if prod not in seen:
                    seen.add(prod)
                    order.append((prod, word + (j + 1,)))
                    nxt.append((prod, word + (j + 1,)))
        nxt.sort(key=lambda t: t[1])
        frontier = nxt
    return order


@pytest.mark.parametrize("family, rank", SMALL + [("B", 4), ("F", 4), ("A", 5)])
def test_enumeration_matches_matrix_closure(family, rank):
    """Same matrices, each with the same word, as the matrix-product
    closure; an element's matrix has the images of the simple roots as
    columns."""
    rs = build_root_system(family, rank)
    roots = signed_roots(rs)
    got = [
        (tuple(zip(*(roots[i] for i in w[1:]))), least_word(rs, w))
        for w in weyl_rows(full_weyl(rs), rank + 1)
    ]
    assert sorted(got) == sorted(_reference_weyl(rs))


@pytest.mark.parametrize("family, rank, step", [("D", 5, 1), ("E", 6, 7)])
def test_enumeration_words_past_the_matrix_closure(family, rank, step):
    """Where the matrix closure does not reach: the word of every step-th
    element multiplies out to its images, and every word is reduced, its
    length being the number of positive roots the element sends negative."""
    rs = build_root_system(family, rank)
    elements = list(weyl_rows(enumerate_weyl(rs), rank + 1))
    words = [least_word(rs, w) for w in elements]
    for w, word in zip(elements[::step], words[::step]):
        assert weyl_from_word(rs, word) == w
    assert element_lengths(rs, elements) == [len(word) for word in words]


def element_lengths(rs, elements):
    """The length of each element: the number of positive roots it sends
    negative.  w(root) has height sum_i c_i * ht(w(alpha_i)); each positive
    root is a simple root or an earlier one plus a simple root, so the
    heights follow from one addition per root."""
    index = root_index(rs)
    steps = []
    for root in rs.positive_roots:
        for i, c in enumerate(root):
            less = root[:i] + (c - 1,) + root[i + 1:]
            if c and (less in index or not any(less)):
                steps.append((index.get(less), i))
                break
    heights = [height(v) for v in signed_roots(rs)]
    lengths = []
    for w in elements:
        simple = [heights[b] for b in w[1:]]
        images = []
        for k, i in steps:
            images.append(simple[i] + (images[k] if k is not None else 0))
        lengths.append(sum(h < 0 for h in images))
    return lengths


@pytest.mark.parametrize(
    "family, rank", [("A", 3), ("B", 4), ("C", 4), ("D", 5), ("F", 4), ("G", 2), ("E", 6)]
)
def test_lengths_follow_the_poincare_product(family, rank):
    """The lengths over the whole enumeration have Macdonald's generating
    function, the product over the positive roots of
    (1 - t^(ht + 1)) / (1 - t^ht), a polynomial of degree N."""
    rs = build_root_system(family, rank)
    heights = [height(root) for root in rs.positive_roots]
    poincare = [1]
    for ht in heights:
        pad = [0] * (ht + 1)
        poincare = [a - b for a, b in zip(poincare + pad, pad + poincare)]
    for ht in heights:
        # divide by 1 - t^ht in place; the division is exact
        for k in range(ht, len(poincare)):
            poincare[k] += poincare[k - ht]
        assert poincare[-ht:] == [0] * ht
        del poincare[-ht:]
    counts = [0] * len(poincare)
    for length in element_lengths(rs, weyl_rows(full_weyl(rs), rank + 1)):
        counts[length] += 1
    assert counts == poincare


@pytest.mark.parametrize("family, rank", SMALL + [("F", 4)])
def test_base_images_match_action(family, rank):
    """Each element's table entry lists the images of -theta and the
    simple roots as signed-root indices, as its word's matrix maps them."""
    rs = build_root_system(family, rank)
    roots = signed_roots(rs)
    base = [tuple(-c for c in rs.highest_root)] + [
        tuple(1 if k == i else 0 for k in range(rank)) for i in range(rank)
    ]
    for w in weyl_rows(enumerate_weyl(rs), rank + 1):
        mat = word_matrix(rs, least_word(rs, w))
        assert [roots[i] for i in w] == [mat_act(mat, v) for v in base]


def test_signed_roots_order(g2):
    roots = signed_roots(g2)
    n = len(g2.positive_roots)
    assert roots[:n] == g2.positive_roots
    assert all(roots[n + i] == tuple(-c for c in v) for i, v in enumerate(roots[:n]))


def test_root_system_hash_is_cheap_and_consistent():
    rs = build_root_system("F", 4)
    twin = dataclasses.replace(rs)
    assert twin is not rs and twin == rs
    assert hash(twin) == hash(rs) == hash(("F", 4))
    assert {rs: 1}[twin] == 1
    assert rs != build_root_system("B", 4)
    lookup = root_index(rs)
    hits = root_index.cache_info().hits
    assert root_index(rs) is lookup
    assert root_index(twin) is lookup
    assert root_index.cache_info().hits == hits + 2


def test_weyl_permutes_roots(g2):
    """Every element maps the root set onto itself, up to sign."""
    roots = set(g2.positive_roots)
    for w in weyl_rows(enumerate_weyl(g2), 3):
        for v in g2.positive_roots:
            image = weyl_act(g2, w, v)
            assert image in roots or tuple(-c for c in image) in roots


def test_weyl_from_word_relations(g2):
    e = next(weyl_rows(enumerate_weyl(g2), 3))
    assert weyl_from_word(g2, [1, 1]) == e
    assert weyl_from_word(g2, [2, 2]) == e
    assert weyl_from_word(g2, [1, 2] * 6) == e
    assert weyl_from_word(g2, [1, 2] * 3) != e
    # generator k reflects the simple root on coordinate axis k
    s1 = weyl_from_word(g2, [1])
    assert weyl_act(g2, s1, (1, 0)) == (-1, 0)
    assert weyl_act(g2, s1, (0, 1)) == (3, 1)
    s2 = weyl_from_word(g2, [2])
    assert weyl_act(g2, s2, (0, 1)) == (0, -1)


def test_weyl_from_word_validation(g2):
    with pytest.raises(ValidationError):
        weyl_from_word(g2, [0])
    with pytest.raises(ValidationError):
        weyl_from_word(g2, [3])
    # True == 1 and 1.0 == 1, yet neither is a generator index
    for bad in (True, 1.0, "1", None):
        with pytest.raises(ValidationError, match="generator index"):
            weyl_from_word(g2, [2, bad])


def test_weyl_cap(monkeypatch):
    """The one bound is the image table's bytes while built, 2 (rank + 1)
    |W|, computed from the system: E7 (46 MB), A9, D8, B8 and C8 (186 MB)
    pass, A10 (878 MB) and E8 are refused before anything is built."""
    monkeypatch.setattr(rootsys, "_weyl_elements", lambda rs: pytest.fail("enumeration started"))
    for family, rank in [("E", 7), ("A", 9), ("D", 8), ("B", 8), ("C", 8)]:
        rs = build_root_system(family, rank)
        assert 2 * (rank + 1) * rs.weyl_order <= MAX_WEYL_TABLE_BYTES
        check_weyl_cap(rs)
    for family, rank in [("A", 10), ("E", 8)]:
        with pytest.raises(ResourceCapError, match=f"above the limit of {MAX_WEYL_TABLE_BYTES}"):
            check_weyl_cap(build_root_system(family, rank))


def test_weyl_byte_width_refused(monkeypatch):
    """D12's 264 signed roots do not fit the closure's one-byte tables, so
    its group is refused before anything is built."""
    d12 = build_root_system("D", 12)

    def no_closure(rs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(rootsys, "_weyl_elements", no_closure)
    with pytest.raises(ResourceCapError, match="264 signed roots"):
        enumerate_weyl(d12)


def test_weyl_table_bytes_refused(monkeypatch):
    """E8's table, 9 bytes per element and twice that while the last join
    is built, passes the bound, so enumerate_weyl refuses it before
    anything is built."""
    monkeypatch.setattr(rootsys, "_weyl_elements", lambda rs: pytest.fail("enumeration started"))
    e8 = build_root_system("E", 8)
    with pytest.raises(ResourceCapError, match=f"takes {2 * 9 * e8.weyl_order} bytes"):
        enumerate_weyl(e8)


def test_weyl_closure_order_check(monkeypatch):
    """A generator list that does not generate the group fails the check of
    the closure's size against the known order."""
    b3 = build_root_system("B", 3)
    perms = rootsys._reflection_permutations(b3)
    rootsys._weyl_elements.cache_clear()
    monkeypatch.setattr(
        rootsys, "_reflection_permutations", lambda rs: (perms[0], perms[0], perms[2])
    )
    try:
        with pytest.raises(InconsistencyError, match="closure found"):
            enumerate_weyl(b3)
    finally:
        rootsys._weyl_elements.cache_clear()


@pytest.mark.parametrize(
    "family, rank, picks",
    [
        ("B", 3, (0, 1, 1)),
        ("B", 3, (1, 1, 1)),
        ("B", 3, (2, 2, 0)),
        ("D", 4, (3, 3, 3, 0)),
        ("D", 4, (0, 1, 1, 3)),
        ("F", 4, (3, 2, 1, 1)),
        ("E", 6, (0, 1, 2, 3, 4, 4)),
    ],
)
def test_weyl_closure_rejects_repeated_generators(monkeypatch, family, rank, picks):
    """Simple reflections listed with repeats generate a proper subgroup:
    a coset walk then finds too few representatives (only the identity
    when the last generator is already among the others), and the product
    of their counts fails the order check.  The walks are walks by length
    whatever the list, so each refusal comes at once."""
    rs = build_root_system(family, rank)
    perms = rootsys._reflection_permutations(rs)
    rootsys._weyl_elements.cache_clear()
    monkeypatch.setattr(
        rootsys, "_reflection_permutations", lambda rs: tuple(perms[i] for i in picks)
    )
    try:
        with pytest.raises(
            InconsistencyError, match=rf"closure found \d+ elements, expected {rs.weyl_order}$"
        ):
            enumerate_weyl(rs)
    finally:
        rootsys._weyl_elements.cache_clear()


# sha256 of each image table's rows, sorted, so they pin the element set
# and not its order; read from the tables of the breadth-first closure by
# left multiplication and of the length-ordered parabolic product
WEYL_TABLE_DIGESTS = {
    ("B", 4): "4248d71238b22fbb80b615833e64b127fd1cada9d7464ebcd19423eaaa6a83ae",
    ("C", 4): "c5a94244b1b56077ac011263013a6db392157b2e77017ffaff3cb90684dbdee7",
    ("D", 5): "149ac2f73b1d1b87bb7e4fc2df5e644d3a62c4e68926f60fcd171ec6c5bccf90",
    ("F", 4): "98a62979e0cf3b01874fb618dfaf36329ee7dd41046d83fcb8084a751b218cf1",
    ("E", 6): "4635f1d15181fa75b157979ad2a2cc72b4d5b4b8db55e6050cadc9361437d48d",
    ("E", 7): "adad2b83ea423518f7f38354e2a53a7e6c250e4665372833c8720ffe90c2ab89",
}


@pytest.mark.parametrize("family, rank", list(WEYL_TABLE_DIGESTS))
def test_weyl_table_digest(family, rank):
    """The parabolic product builds the same elements as the closures it
    replaced, row for row; E7 (23 MB) is dropped from the cache
    afterwards."""
    rs = build_root_system(family, rank)
    try:
        assert _row_digest(full_weyl(rs), rank + 1) == WEYL_TABLE_DIGESTS[family, rank]
    finally:
        if (family, rank) == ("E", 7):
            full_weyl.cache_clear()


def _row_digest(images, width):
    rows = sorted(images[i : i + width] for i in range(0, len(images), width))
    return hashlib.sha256(b"".join(rows)).hexdigest()


@pytest.mark.parametrize(
    "family, rank",
    [("A", 4), ("B", 4), ("C", 4), ("D", 4), ("D", 5), ("F", 4), ("E", 6), ("E", 7)],
)
def test_enumeration_is_a_transversal_of_omega(family, rank):
    """The elements of W that permute the extended base number f, and the
    enumeration's rows, each permuted by their f position permutations
    (the rows of u * omega), give every row of the whole group once."""
    rs = build_root_system(family, rank)
    try:
        perms = omega_positions(rs)
        assert len(perms) == rs.index_of_connection
        width = rank + 1
        expected = WEYL_TABLE_DIGESTS.get((family, rank)) or _row_digest(full_weyl(rs), width)
        table = enumerate_weyl(rs)
        union = bytearray()
        for sigma in perms:
            permuted = bytearray(len(table))
            for i, j in enumerate(sigma):
                permuted[i::width] = table[j::width]
            union += permuted
        assert _row_digest(bytes(union), width) == expected
    finally:
        if (family, rank) == ("E", 7):
            full_weyl.cache_clear()
            rootsys._weyl_elements.cache_clear()


def test_enumeration_refuses_a_doctored_omega(monkeypatch):
    """The quotient is refused when Omega-bar is not what it should be:
    with its identity repeated, no depth of the chain gives every orbit f
    cosets; with the identity and s1 * s2 (of order 3) in B3, the "orbits"
    overlap and the kept cosets do not come to |W|/f elements."""
    rs = build_root_system("B", 3)
    omega_bar = rootsys._omega_bar

    def repeated(rs, *args):
        return [omega_bar(rs, *args)[0]] * rs.index_of_connection

    def non_group(rs, gens, simple, n):
        return [bytes(range(256)), gens[1].translate(gens[0])]

    rootsys._weyl_elements.cache_clear()
    try:
        monkeypatch.setattr(rootsys, "_omega_bar", repeated)
        with pytest.raises(InconsistencyError, match="fewer than 2 cosets at every depth"):
            enumerate_weyl(rs)
        monkeypatch.setattr(rootsys, "_omega_bar", non_group)
        with pytest.raises(InconsistencyError, match=r"kept 16 elements, expected \|W\|/f = 24$"):
            enumerate_weyl(rs)
    finally:
        rootsys._weyl_elements.cache_clear()


@pytest.mark.parametrize("family, rank, step", [("B", 4, 1), ("D", 5, 1), ("F", 4, 1), ("E", 6, 37)])
def test_least_word_of_parabolic_product(family, rank, step):
    """Least words follow the parabolic factorisation that builds the
    table: w = v * u, with v in the subgroup of the first rank - 1
    generators and u free of left descents among them, has v's least word
    followed by u's as its least word, so l(w) = l(v) + l(u)."""
    rs = build_root_system(family, rank)
    for w in list(weyl_rows(enumerate_weyl(rs), rank + 1))[::step]:
        v_word, u = parabolic_split(rs, w)
        v_least = least_word(rs, weyl_from_word(rs, v_word))
        u_least = least_word(rs, u)
        assert rank not in v_least
        assert u_least[:1] in ((), (rank,))
        assert least_word(rs, w) == v_least + u_least
        assert weyl_from_word(rs, v_least + u_least) == w


@pytest.mark.parametrize("family, rank", SMALL + [("F", 4)])
def test_weyl_group_view(family, rank):
    """The whole group's image table has rank + 1 bytes for each of the
    |W| elements, and its rows are the elements that the matrix closure's
    words multiply out to."""
    rs = build_root_system(family, rank)
    table = full_weyl(rs)
    rows = list(weyl_rows(table, rank + 1))
    assert len(rows) == rs.weyl_order
    assert len(table) == (rank + 1) * len(rows)
    assert set(rows) == {weyl_from_word(rs, word) for _, word in _reference_weyl(rs)}


def test_weyl_group_keeps_only_its_image_table():
    """A freshly built group keeps, by traced memory, little more than its
    image table: rank + 1 bytes per element, one element per coset of
    Omega-bar (|W| / 4 on D5), with no per-element objects."""
    rs = build_root_system("D", 5)
    rootsys._reflection_permutations(rs)
    extended_base_indices(rs)
    rootsys._weyl_elements.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        group = enumerate_weyl(rs)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        rootsys._weyl_elements.cache_clear()
    assert len(group) == 6 * 1920 // 4
    assert kept < 2 * len(group)


def test_normalize_subset(g2):
    assert normalize_subset(g2, [3, 1, 1, 0]) == (0, 1, 3)
    assert normalize_subset(g2, ()) == ()
    with pytest.raises(ValidationError, match="out of range"):
        normalize_subset(g2, [6])
    with pytest.raises(ValidationError):
        normalize_subset(g2, [-1])
    # each index is checked before the sort compares it with another
    for mixed in ([0, "a"], ["a", 0], [None, 1], [1, 2.0], [[1], 0], [0, True]):
        with pytest.raises(ValidationError, match="out of range"):
            normalize_subset(g2, mixed)


def test_subset_complement(g2):
    assert subset_complement(g2, (0, 2, 4)) == (1, 3, 5)
    assert subset_complement(g2, ()) == (0, 1, 2, 3, 4, 5)
    assert subset_complement(g2, subset_complement(g2, (1, 5))) == (1, 5)


def test_subset_from_roots(g2):
    assert subset_from_roots(g2, [(3, 2), (1, 0)]) == (1, 5)
    with pytest.raises(ValidationError, match="not a positive root"):
        subset_from_roots(g2, [(9, 9)])


def test_lower_closure(g2):
    """The closure is exactly the set of roots below some chosen root."""
    closure = lower_closure(g2, [3])
    assert closure == (0, 1, 2, 3)
    roots = g2.positive_roots
    for i in closure:
        assert any(poset_leq(roots[i], roots[j]) for j in (3,))
    assert is_ideal(g2, closure)
    assert not is_ideal(g2, (3,))


@pytest.mark.parametrize("family, rank", SMALL)
def test_lower_closure_is_downward_closed(family, rank):
    rs = build_root_system(family, rank)
    roots = rs.positive_roots
    top = (len(roots) - 1, len(roots) // 2)
    closure = set(lower_closure(rs, top))
    assert set(top) <= closure
    for i in closure:
        for j in range(len(roots)):
            if poset_leq(roots[j], roots[i]):
                assert j in closure


@pytest.mark.parametrize(
    "family, rank, count",
    [
        ("A", 1, 2),
        ("A", 2, 5),
        ("A", 3, 14),
        ("A", 4, 42),
        ("B", 2, 6),
        ("B", 3, 20),
        ("C", 3, 20),
        ("D", 4, 50),
        ("G", 2, 8),
    ],
)
def test_ideal_counts(family, rank, count):
    rs = build_root_system(family, rank)
    ideals = enumerate_ideals(rs)
    assert len(ideals) == count
    assert ideals[0] == ()
    assert ideals[-1] == tuple(range(len(rs.positive_roots)))
    sizes = [len(i) for i in ideals]
    assert sizes == sorted(sizes)
    for ideal in ideals:
        assert is_ideal(rs, ideal)


def test_g2_ideals_explicit(g2):
    assert enumerate_ideals(g2) == (
        (),
        (0,),
        (1,),
        (0, 1),
        (0, 1, 2),
        (0, 1, 2, 3),
        (0, 1, 2, 3, 4),
        (0, 1, 2, 3, 4, 5),
    )


def test_poset_leq():
    assert poset_leq((1, 0), (1, 1))
    assert poset_leq((1, 1), (1, 1))
    assert not poset_leq((1, 1), (1, 0))
    assert not poset_leq((0, 1), (1, 0))


@settings(max_examples=40, deadline=None)
@given(word=st.lists(st.integers(min_value=1, max_value=2), max_size=10))
def test_word_images_stay_in_root_set(word):
    rs = build_root_system("G", 2)
    w = weyl_from_word(rs, word)
    roots = set(rs.positive_roots)
    for v in rs.positive_roots:
        image = weyl_act(rs, w, v)
        assert image in roots or tuple(-c for c in image) in roots


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_word_action_matches_matrix_product(data):
    """weyl_act of a word's element agrees with the word's matrix."""
    family, rank = data.draw(st.sampled_from([("G", 2), ("B", 3), ("D", 4), ("F", 4)]))
    rs = build_root_system(family, rank)
    word = data.draw(st.lists(st.integers(min_value=1, max_value=rank), max_size=16))
    v = data.draw(st.tuples(*[st.integers(min_value=-5, max_value=5)] * rank))
    assert weyl_act(rs, weyl_from_word(rs, word), v) == mat_act(word_matrix(rs, word), v)


@settings(max_examples=40, deadline=None)
@given(indices=st.lists(st.integers(min_value=0, max_value=8), max_size=6))
def test_lower_closure_idempotent(indices):
    rs = build_root_system("B", 3)
    once = lower_closure(rs, indices)
    assert lower_closure(rs, once) == once
    assert is_ideal(rs, once)


# Faces of the alcove: root sets, stabiliser orders and orbits.


def _faces(rs):
    walls = rs.rank + 1
    for bits in range((1 << walls) - 1):
        yield tuple(i for i in range(walls) if bits >> i & 1)


def _form(rs, u, v):
    return sum(u[i] * rs.gram[i][j] * v[j] for i in range(rs.rank) for j in range(rs.rank))


def _reflection_group_order(rs, roots):
    """Order of the group generated by the reflections in the given roots,
    by closure on permutations of the signed roots."""
    signed = signed_roots(rs)
    lookup = {v: i for i, v in enumerate(signed)}
    gens = []
    for beta in roots:
        norm = _form(rs, beta, beta)
        perm = []
        for v in signed:
            pairing = 2 * _form(rs, v, beta) / norm
            assert pairing.denominator == 1
            perm.append(lookup[tuple(x - int(pairing) * b for x, b in zip(v, beta))])
        gens.append(tuple(perm))
    identity = tuple(range(len(signed)))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                prod = tuple(p[i] for i in g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


@pytest.mark.parametrize(
    "family, rank", [("G", 2), ("B", 3), ("C", 3), ("A", 4), ("D", 4), ("F", 4)]
)
def test_face_weyl_order_matches_reflection_closure(family, rank):
    rs = build_root_system(family, rank)
    for face in _faces(rs):
        roots = [rs.positive_roots[k] for k in face_roots(rs, face)]
        assert face_weyl_order(rs, face) == _reflection_group_order(rs, roots), face


def test_face_roots_extremes(g2):
    assert face_roots(g2, ()) == ()
    assert face_roots(g2, (1, 2)) == tuple(range(6))
    assert face_roots(g2, (0,)) == (g2.highest_root_index,)
    # wall 0 with the short simple root (1,0), root 1: the highest root
    # and that root, orthogonal to each other (A1 x A1)
    assert face_roots(g2, (0, 1)) == (1, g2.highest_root_index)
    assert face_weyl_order(g2, (0, 1)) == 4
    with pytest.raises(ValidationError):
        face_roots(g2, (0, 1, 2))
    with pytest.raises(ValidationError):
        face_roots(g2, (3,))


@pytest.mark.parametrize("family, rank", SMALL + [("F", 4)])
def test_root_set_orbit_of_one_root(family, rank):
    """The orbit of a single root, up to sign, is every positive root of
    its length."""
    rs = build_root_system(family, rank)
    for k, root in enumerate(rs.positive_roots):
        length = classify_length(rs, root)
        same = {
            1 << j for j, other in enumerate(rs.positive_roots)
            if classify_length(rs, other) == length
        }
        orbit = charquasi.root_set_orbit(rs, 1 << k)
        assert orbit[0] == 1 << k
        assert len(orbit) == len(set(orbit))
        assert set(orbit) == same


def test_root_set_orbit_matches_group_action(g2):
    """Orbits of root sets agree with applying every group element."""
    signed = signed_roots(g2)
    n = len(g2.positive_roots)
    lookup = {v: i % n for i, v in enumerate(signed)}
    for mask in range(1 << n):
        members = [k for k in range(n) if mask >> k & 1]
        expected = {
            sum(1 << lookup[weyl_act(g2, w, g2.positive_roots[k])] for k in members)
            for w in weyl_rows(full_weyl(g2), 3)
        }
        assert set(charquasi.root_set_orbit(g2, mask)) == expected
