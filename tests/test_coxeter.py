"""Group enumeration: orders, words, descents, Bruhat order, FC elements."""

import hashlib
import itertools
import json
import os

import pytest

from jwkit import coxeter
from jwkit.coxeter import LargeComputationError, UnsupportedFamilyError, presentation

from oracles import catalan, grp, shortlex_words_bruteforce

SMALL = [
    ("A", 1, None),
    ("A", 2, None),
    ("A", 3, None),
    ("A", 4, None),
    ("B", 2, None),
    ("B", 3, None),
    ("I2", None, 3),
    ("I2", None, 5),
    ("I2", None, 7),
    ("H3", None, None),
]

ORDERS = {
    ("A", 1, None): 2,
    ("A", 2, None): 6,
    ("A", 3, None): 24,
    ("A", 4, None): 120,
    ("B", 2, None): 8,
    ("B", 3, None): 48,
    ("I2", None, 3): 6,
    ("I2", None, 5): 10,
    ("I2", None, 7): 14,
    ("H3", None, None): 120,
}

W0_LENGTHS = {
    ("A", 1, None): 1,
    ("A", 2, None): 3,
    ("A", 3, None): 6,
    ("A", 4, None): 10,
    ("B", 2, None): 4,
    ("B", 3, None): 9,
    ("I2", None, 3): 3,
    ("I2", None, 5): 5,
    ("I2", None, 7): 7,
    ("H3", None, None): 15,
}


@pytest.mark.parametrize("family,rank,m", SMALL, ids=str)
def test_orders_and_w0(family, rank, m):
    g = grp(family, rank, m)
    key = (family, rank, m)
    assert g.size == ORDERS[key]
    assert g.length[g.w0] == W0_LENGTHS[key]
    # w0 is an involution and multiplication by it flips lengths
    assert g.multiply(g.w0, g.w0) == 0
    for x in range(g.size):
        assert g.length[g.multiply(x, g.w0)] == g.length[g.w0] - g.length[x]


@pytest.mark.parametrize("family,rank,m", SMALL, ids=str)
def test_braid_relations_in_table(family, rank, m):
    g = grp(family, rank, m)
    mat = g.presentation.matrix
    for s in range(g.rank):
        assert g.right[g.right[0][s]][s] == 0  # involutions
        for t in range(s + 1, g.rank):
            x = 0
            order = 0
            while True:
                x = g.right[x][s if order % 2 == 0 else t]
                order += 1
                if x == 0:
                    break
                assert order <= 2 * mat[s][t]
            assert order == 2 * mat[s][t]


@pytest.mark.parametrize(
    "family,rank,m",
    [("A", 2, None), ("A", 3, None), ("B", 2, None), ("I2", None, 5), ("I2", None, 6)],
    ids=str,
)
def test_shortlex_words_match_bruteforce(family, rank, m):
    g = grp(family, rank, m)
    oracle = shortlex_words_bruteforce(g)
    for x in range(g.size):
        assert g.word[x] == oracle[x]


def test_enumeration_sorted_and_identity_first():
    for family, rank, m in SMALL:
        g = grp(family, rank, m)
        assert g.word[0] == ()
        keys = [(g.length[x], g.word[x]) for x in range(g.size)]
        assert keys == sorted(keys)


@pytest.mark.parametrize("family,rank,m", SMALL, ids=str)
def test_inverse_and_multiply(family, rank, m):
    g = grp(family, rank, m)
    for x in range(g.size):
        assert g.multiply(x, g.inv[x]) == 0
        assert g.multiply(g.inv[x], x) == 0
        assert g.length[g.inv[x]] == g.length[x]


@pytest.mark.parametrize("family,rank,m", SMALL, ids=str)
def test_left_right_tables_agree_with_multiply(family, rank, m):
    g = grp(family, rank, m)
    gens = [g.right[0][s] for s in range(g.rank)]
    for x in range(0, g.size, max(1, g.size // 40)):
        for s in range(g.rank):
            assert g.right[x][s] == g.multiply(x, gens[s])
            assert g.left[x][s] == g.multiply(gens[s], x)


@pytest.mark.parametrize(
    "family,rank,m",
    [("A", 2, None), ("A", 3, None), ("B", 2, None), ("I2", None, 5)],
    ids=str,
)
def test_bruhat_vs_subword_oracle(family, rank, m):
    g = grp(family, rank, m)
    for x in range(g.size):
        for y in range(g.size):
            assert g.bruhat_leq(y, x) == coxeter.bruhat_leq_subword(g, y, x)


def test_bruhat_spot_checks():
    g = grp("A", 2)
    s1 = g.right[0][0]
    s2 = g.right[0][1]
    assert not g.bruhat_leq(s1, s2)
    assert not g.bruhat_leq(s2, s1)
    assert g.bruhat_leq(s1, g.w0)
    assert len(g.bruhat_interval_below(g.w0)) == g.size


def test_fc_type_a_catalan():
    for rank in range(1, 6):
        g = grp("A", rank)
        assert sum(g.fc) == catalan(rank + 1)


def test_fc_flags_are_321_avoiding():
    # in type A, x is fully commutative iff its permutation has no
    # decreasing subsequence of length 3 (Billey-Jockusch-Stanley 1993);
    # the permutation is built here from the word, not by the package
    for rank in (2, 3, 4, 5):
        g = grp("A", rank)
        for x in range(g.size):
            p = list(range(rank + 1))
            for s in g.word[x]:
                p[s], p[s + 1] = p[s + 1], p[s]
            has_321 = any(a > b > c for a, b, c in itertools.combinations(p, 3))
            assert g.fc[x] == (not has_321)


def test_fc_dihedral():
    # every element except w0 has a unique reduced word, so FC = all but w0
    for m in (3, 4, 5, 8):
        g = grp("I2", m=m)
        assert g.fc == [True] * (g.size - 1) + [False]


def test_fc_identity_and_generators():
    g = grp("B", 3)
    assert g.fc[0]
    for s in range(g.rank):
        assert g.fc[g.right[0][s]]


def test_f4_builds_with_correct_order():
    g = grp("F4", allow_large=True)
    assert g.size == 1152
    assert g.length[g.w0] == 24


def _table_digest(g):
    doc = [g.length, [list(w) for w in g.word], g.right, g.left, g.inv, g.fc]
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


# sha256 of (length, word, right, left, inv, fc), recorded from the earlier
# model that multiplied reflection matrices over Q(sqrt d); the root
# permutation model must reproduce every table exactly
MATRIX_MODEL_DIGESTS = {
    "H3": "87cba2d6b2760c090117814be94b3bbdd9456c0b16173ebc8861f6a5db9645d1",
    "F4": "fcc51df709b4ef038b9ed634c3d64ec55ba646d3432dbf7b9d1163b80d77ef23",
}


@pytest.mark.parametrize("family", sorted(MATRIX_MODEL_DIGESTS))
def test_tables_match_matrix_model(family):
    assert _table_digest(grp(family, allow_large=True)) == MATRIX_MODEL_DIGESTS[family]


def _family_rank(name):
    """"A4" -> ("A", 4), "I2(5)" -> ("I2", 5); F4, H3 and H4 have a fixed rank."""
    if name.startswith("I2"):
        return "I2", int(name[3:-1])
    return (name[0], int(name[1:])) if name[0] in "AB" else (name, None)


def _named_group(name):
    family, n = _family_rank(name)
    if family == "I2":
        return grp("I2", m=n)
    return grp(family, n, allow_large=True)


# sha256 of (length, word, right, left, inv, fc), recorded from the earlier
# models of A (permutations of {0, ..., n}), B (signed permutations) and
# I2(m) (dihedral pairs); the root permutation model must reproduce the A
# and B tables exactly, and the I2 tables must not move
PERMUTATION_MODEL_DIGESTS = {
    "A1": "cd7c67151c65edf8300038844b9cd2ac7fa7406bcb84d3de6ddca6030cf72eb7",
    "A2": "99ee0705d7d96eccbd07c3801b59cb431e8281309ba9a4ef452796561d5d307a",
    "A3": "1825f8d6e7a6bcbca61211eb048c3f7ca45431bf2e948be2e8c64ff364485187",
    "A4": "f4fa6a329dfb6ed7eed96ad0e94f4da9eddbbdde462f66e3454934714327565f",
    "A5": "d8108891d7e16256cd82b65c28274f1c2fa060e5cd563e02673eac4b06a95731",
    "B2": "efe5688035a5eaeb71e64eecb5b0c2f95576e5d7c52086536a54921c1d80649a",
    "B3": "2747d1c77e2680a53df140b830fcea46fa67ac9541d62f9a4e0f407b85b60633",
    "B4": "b14a7c60b8e096e0aa58249c4e3380bb7fee59739d8a37dcc96b5c7bb79374f7",
    "B5": "9965c6eb5b5eabe3e746bb6a6d839a8a0379a982848bf0e625deec5b922edfe1",
    "I2(3)": "99ee0705d7d96eccbd07c3801b59cb431e8281309ba9a4ef452796561d5d307a",
    "I2(4)": "efe5688035a5eaeb71e64eecb5b0c2f95576e5d7c52086536a54921c1d80649a",
    "I2(5)": "9b0376d73cd4955de1443c0cc280e2ca9b23fb14b602efe8c1c5415e0f2b0532",
    "I2(6)": "754b71bff272ee813a6e2cc86062bad04261240580b313c190f8838f41794997",
    "I2(8)": "834719511c80e1f1b65d8d956f7a76b747ed51ecd9e0366023ae424db63a9d4e",
}


@pytest.mark.parametrize("name", list(PERMUTATION_MODEL_DIGESTS))
def test_tables_match_permutation_models(name):
    assert _table_digest(_named_group(name)) == PERMUTATION_MODEL_DIGESTS[name]


ROOT_COUNTS = (
    [("H3", 30), ("F4", 48), ("H4", 120)]
    + [(f"A{n}", n * (n + 1)) for n in range(1, 6)]
    + [(f"B{n}", 2 * n * n) for n in range(2, 6)]
)


@pytest.mark.parametrize("family,n_roots", ROOT_COUNTS)
def test_root_system(family, n_roots):
    # rank * Coxeter number roots; each generator permutes them as an
    # involution and sends its own simple root to its negative
    model = coxeter._model_for(presentation(*_family_rank(family)))
    roots = model.roots
    assert len(roots) == len(set(roots)) == n_roots
    for s, perm in enumerate(model.perm):
        assert sorted(perm) == list(range(n_roots))
        assert all(perm[perm[i]] == i for i in range(n_roots))
        assert roots[perm[s]] == tuple((-a, -b) for a, b in roots[s])


def test_h4_enumerates_by_default():
    g = grp("H4", allow_large=True)
    assert g.size == 14400
    assert g.length[g.w0] == 60


def test_fc_counts_match_stembridge():
    # Stembridge, "The enumeration of fully commutative elements of Coxeter
    # groups" (J. Algebraic Combin., 1998): H3 44, H4 195, F4 106 and
    # (n + 2) C_n - 1 in B_n, which is 83 in B4
    assert sum(grp("H3").fc) == 44
    assert sum(grp("F4", allow_large=True).fc) == 106
    assert sum(grp("H4", allow_large=True).fc) == 195
    for n in (2, 3, 4):
        assert sum(grp("B", n).fc) == (n + 2) * catalan(n) - 1


def _reduced_word_counts(g):
    count = [1] + [0] * (g.size - 1)
    for x in range(1, g.size):  # ids are sorted by length
        count[x] = sum(count[g.right[x][s]] for s in g.right_descents(x))
    return count


def _commutation_class_size(word, matrix):
    """Linear extensions of the heap of word, by a DP over its order ideals
    (bit masks of the positions placed so far)."""
    k = len(word)
    preds = [0] * k  # earlier positions that do not commute with position j
    for j in range(k):
        for i in range(j):
            if matrix[word[i]][word[j]] != 2:
                preds[j] |= 1 << i
    memo = {(1 << k) - 1: 1}

    def ext(done):
        hit = memo.get(done)
        if hit is None:
            rest = ~done
            hit = sum(
                ext(done | 1 << j) for j in range(k) if rest >> j & 1 and not preds[j] & rest
            )
            memo[done] = hit
        return hit

    return ext(0)


@pytest.mark.parametrize("family", ["H3", "F4", "H4", "A4", "B4"])
def test_fc_flags_by_counting_reduced_words(family):
    # x is fully commutative iff all its reduced words form one commutation
    # class, i.e. iff it has as many reduced words as one word's class
    g = _named_group(family)
    counts = _reduced_word_counts(g)
    mat = g.presentation.matrix
    for x in range(g.size):
        assert g.fc[x] == (counts[x] == _commutation_class_size(g.word[x], mat))


def test_enumeration_checked_against_classical_order(monkeypatch):
    monkeypatch.setattr(coxeter, "classical_order", lambda pres: 121)
    with pytest.raises(coxeter.EnumerationError, match="classical order is 121"):
        coxeter.build_group(presentation("H3"))


def test_b_convention_m4_between_first_two_generators():
    pres = presentation("B", 3)
    assert pres.matrix[0][1] == 4
    assert pres.matrix[1][2] == 3
    assert pres.matrix[0][2] == 2


def test_c_is_alias_of_b():
    assert presentation("C", 3) == presentation("B", 3)


def test_unsupported_families_rejected():
    with pytest.raises(UnsupportedFamilyError, match="type D"):
        presentation("D", 4)
    with pytest.raises(UnsupportedFamilyError, match="type E"):
        presentation("E", 6)
    with pytest.raises(UnsupportedFamilyError):
        presentation("I2", m=2)
    with pytest.raises(UnsupportedFamilyError):
        presentation("A", 0)
    with pytest.raises(UnsupportedFamilyError):
        presentation("Z", 2)


def test_large_guard():
    with pytest.raises(LargeComputationError):
        coxeter.build_group(presentation("A", 7))


@pytest.mark.large
@pytest.mark.skipif(
    os.environ.get("JWKIT_LARGE") != "1",
    reason="H4 enumeration is opt-in: set JWKIT_LARGE=1",
)
def test_h4_build():
    g = grp("H4", allow_large=True)
    assert g.size == 14400
    assert g.length[g.w0] == 60
