import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vassiliev import (
    DoublePointPassage,
    GaussCode,
    Passage,
    SingularCode,
    apply_r1,
    apply_r2,
    embedding_genus,
    format_code,
    is_realizable,
    list_r2_insertions,
    mirror,
    parse_gauss_code,
    parse_knot_table,
    parse_singular_code,
    random_perturbations,
    reverse_orientation,
    rotate_basepoint,
    validate,
)
from vassiliev import codes
from vassiliev.codes import Diagnostic
from vassiliev.errors import (
    CheckFailed,
    IndexOutOfRange,
    LabelRoleMismatch,
    MalformedToken,
    ParseError,
    SignMismatch,
    UnknownLabel,
    UnsupportedOrientationCase,
    VassilievError,
)
from vassiliev.invariants import v2, v3

from conftest import TREFOIL, outcome

ABAB = "O1+ U2+ U1+ O2+"  # one interleaved pair; no planar diagram has this code


def random_code(rng, max_crossings=6):
    """A uniformly scrambled valid code, possibly non-realizable."""
    n = rng.randint(0, max_crossings)
    slots = list(range(2 * n))
    rng.shuffle(slots)
    passages = [None] * (2 * n)
    for label in range(1, n + 1):
        a, b = slots[2 * label - 2], slots[2 * label - 1]
        sign = rng.choice((1, -1))
        first_over = rng.random() < 0.5
        passages[min(a, b)] = Passage(str(label), "O" if first_over else "U", sign)
        passages[max(a, b)] = Passage(str(label), "U" if first_over else "O", sign)
    return GaussCode(tuple(passages))


# -- parsing ----------------------------------------------------------------

def test_parse_trefoil_structure(trefoil):
    assert len(trefoil) == 6
    assert trefoil.crossings == ("1", "2", "3")
    assert trefoil.positions("1") == (0, 3)
    assert trefoil.sign_of("2") == 1


def test_parse_empty_is_unknot():
    code = parse_gauss_code("")
    assert len(code) == 0
    assert format_code(code) == ""


def test_parse_normalizes_labels():
    code = parse_gauss_code("Ox- Uzz+ Ux- Ozz+")
    assert code.crossings == ("1", "2")
    assert format_code(code) == "O1- U2+ U1- O2+"


def test_parse_rejects_malformed_tokens():
    for bad in ("O1", "1+", "Q1+", "O1*", "garbage"):
        with pytest.raises(MalformedToken):
            parse_gauss_code(bad)


def test_parse_rejects_role_mismatch():
    with pytest.raises(LabelRoleMismatch):
        parse_gauss_code("O1+ O1+")
    with pytest.raises(LabelRoleMismatch):
        parse_gauss_code("O1+ U2+ O2- U2+ O1+")


def test_parse_rejects_sign_mismatch():
    with pytest.raises(SignMismatch):
        parse_gauss_code("O1+ U1-")


def test_positions_unknown_label(trefoil):
    with pytest.raises(UnknownLabel):
        trefoil.positions("9")
    thrice = GaussCode((Passage("1", "O", 1), Passage("1", "U", 1), Passage("1", "O", 1)))
    with pytest.raises(UnknownLabel):
        thrice.positions("1")


def test_pairing_table_is_not_a_field(trefoil):
    twin = GaussCode(trefoil.passages)  # built directly: no table yet
    assert trefoil.positions("2") == (1, 4)
    assert twin == trefoil and hash(twin) == hash(trefoil)
    assert "ends" in vars(trefoil) and "ends" not in vars(twin)


def test_parse_hands_over_the_pairing_table():
    for code in (parse_gauss_code("Ox- Uzz+ Ux- Ozz+"), parse_gauss_code(TREFOIL),
                 parse_singular_code("X9a O2+ X9b U2+")):
        assert "ends" in vars(code)  # seeded by the parse, not built on demand
        fresh = type(code)(code.passages)
        assert list(vars(code)["ends"].items()) == list(fresh.ends.items())


def test_parse_singular_tokens():
    code = parse_singular_code("X9a O2+ X9b U2+")
    assert code.double_points == ("1",)
    assert code.degree == 1
    # crossings and double points each get their own dense numbering
    assert format_code(code) == "X1a O1+ X1b U1+"


def test_singular_visit_order_enforced():
    with pytest.raises(LabelRoleMismatch):
        parse_singular_code("X1b X1a")
    # crossing findings come before double-point findings
    with pytest.raises(SignMismatch, match="crossing 7"):
        parse_singular_code("X5b X5a O7+ U7-")
    bad = SingularCode((DoublePointPassage("5", "b"), DoublePointPassage("5", "a"),
                        Passage("7", "O", 1), Passage("7", "U", -1)))
    assert [(d.kind, d.label) for d in validate(bad)] == [
        ("SignMismatch", "7"), ("LabelRoleMismatch", "5")
    ]


def test_validate_reports_instead_of_raising():
    bad = GaussCode((Passage("1", "O", 1), Passage("1", "U", -1),
                     Passage("2", "O", 1), Passage("2", "U", 1)))
    diags = validate(bad)
    assert [d.kind for d in diags] == ["SignMismatch"]
    assert diags[0].label == "1"


# The parser as first written, kept as the oracle: it reads the tokens into
# a code on the labels as written, diagnoses that code with every label
# sorted, then relabels, building every passage a second time; the pairing
# table is left for the code to walk.
ORACLE_TOKEN = re.compile(r"(O|U)([A-Za-z0-9]+)([+-])\Z")
ORACLE_SINGULAR_TOKEN = re.compile(r"X([A-Za-z0-9]+)([ab])\Z")


def oracle_diagnose(code):
    out = []
    ps = code.passages
    for (kind, label), hits in sorted(
        code.ends.items(), key=lambda e: (e[0][0] is DoublePointPassage, e[0][1])
    ):
        if kind is DoublePointPassage:
            visits = [ps[i].visit for i in hits]
            if visits != ["a", "b"]:
                out.append(Diagnostic(
                    "LabelRoleMismatch", label,
                    f"double point {label} needs visit a then visit b, got {'/'.join(visits) or 'nothing'}",
                ))
            continue
        roles = sorted(ps[i].role for i in hits)
        if roles != ["O", "U"]:
            out.append(Diagnostic(
                "LabelRoleMismatch", label,
                f"crossing {label} has passages {'/'.join(roles)}, needs exactly one O and one U",
            ))
        elif ps[hits[0]].sign != ps[hits[1]].sign:
            out.append(Diagnostic("SignMismatch", label, f"crossing {label} carries both signs"))
    return out


def oracle_parse(text, kind):
    passages = []
    for tok in text.split():
        if m := ORACLE_TOKEN.match(tok):
            role, label, sign = m.groups()
            passages.append(Passage(label, role, 1 if sign == "+" else -1))
        elif kind is SingularCode and (m := ORACLE_SINGULAR_TOKEN.match(tok)):
            passages.append(DoublePointPassage(*m.groups()))
        else:
            raise MalformedToken(f"bad token {tok!r}")
    raw = kind(tuple(passages))
    diags = oracle_diagnose(raw)
    if diags:
        raise {"LabelRoleMismatch": LabelRoleMismatch, "SignMismatch": SignMismatch}[diags[0].kind](diags[0].message)
    new = {}
    for k in (Passage, DoublePointPassage):
        labels = [label for kk, label in raw.ends if kk is k]
        new.update({(k, label): str(rank) for rank, label in enumerate(labels, start=1)})
    return kind(tuple(
        Passage(new[Passage, p.label], p.role, p.sign) if type(p) is Passage
        else DoublePointPassage(new[DoublePointPassage, p.label], p.visit)
        for p in passages
    ))


LABELS = ("1", "2", "7", "10", "a", "zz", "Q3")
CROSSING = st.builds("{}{}{}".format, st.sampled_from("OU"), st.sampled_from(LABELS), st.sampled_from("+-"))
TOKENS = st.one_of(
    CROSSING,
    CROSSING,
    st.builds("X{}{}".format, st.sampled_from(LABELS), st.sampled_from("ab")),
    st.sampled_from(("O1", "1+", "Q1+", "O1*", "o1+", "U+", "X1", "X1c", "Xa+", "O1+a", "Oé1+")),
)


@st.composite
def token_strings(draw):
    """Token strings: random tokens, or a well-formed code, possibly with
    double points, under up to three edits that replace, drop or repeat a
    token or flip its role, sign or visit, so labels are met once, twice or
    three times, roles, signs and visits clash, and malformed tokens turn
    up anywhere."""
    if draw(st.integers(0, 3)) == 0:
        return " ".join(draw(st.lists(TOKENS, max_size=10)))
    labels = draw(st.lists(st.sampled_from(LABELS), unique=True, max_size=6))
    singular = draw(st.booleans())
    points = {label for label in labels if singular and draw(st.booleans())}  # double points
    signs = {label: draw(st.sampled_from("+-")) for label in labels}
    roles = {label: draw(st.sampled_from(("OU", "UO"))) for label in labels}
    tokens, seen = [], set()
    for label in draw(st.permutations([label for label in labels for _ in "ab"])):
        visit = 1 if label in seen else 0
        seen.add(label)
        tokens.append(f"X{label}{'ab'[visit]}" if label in points else f"{roles[label][visit]}{label}{signs[label]}")
    for _ in range(draw(st.integers(0, 3))):
        if not tokens:
            break
        i = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(("replace", "drop", "repeat", "flip")))
        if edit == "replace":
            tokens[i] = draw(TOKENS)
        elif edit == "drop":
            del tokens[i]
        elif edit == "repeat":
            tokens.insert(draw(st.integers(0, len(tokens))), tokens[i])
        else:  # the role at the front, or the sign or visit at the back
            tok, flip = tokens[i], str.maketrans("OU+-ab", "UO-+ba")
            tokens[i] = tok[0].translate(flip) + tok[1:] if draw(st.booleans()) else tok[:-1] + tok[-1].translate(flip)
    return " ".join(tokens)


def _parsed(parse, text, kind):
    try:
        code = parse(text, kind)
    except VassilievError as exc:
        return type(exc), str(exc)
    return type(code), format_code(code), list(code.ends.items())


@settings(max_examples=200)
@given(token_strings())
def test_one_pass_parse_agrees_with_the_oracle(text):
    for kind in (GaussCode, SingularCode):
        assert _parsed(codes._parse, text, kind) == _parsed(oracle_parse, text, kind)


@pytest.mark.parametrize("text", [
    "", TREFOIL, "Ox- Uzz+ Ux- Ozz+", "X9a O2+ X9b U2+", "X1a O1+ X1b U1-", "X1a O1+ X1b U1+",
    "O1+ O1+", "O1+ U1+ O1+", "O1+", "O1+ U1-", "X1b X1a", "X1a", "X1a X1a X1b", "X5b X5a O7+ U7-",
    # written labels sort apart from their new names: 10 before 7, a before zz
    "O7+ U10+ U7- O10-", "Ozz+ Ua+ Uzz- Oa-", "O7+ U7+ O10+ O10+", "X7a X10b X7b X10a",
    # a malformed token comes first, wherever it stands
    "O1+ O1+ Q1+", "O1+ U1+ o1+", "X1a X1b Xa+",
])
def test_parse_agrees_with_the_oracle_on_chosen_strings(text):
    for kind in (GaussCode, SingularCode):
        assert _parsed(codes._parse, text, kind) == _parsed(oracle_parse, text, kind)


def test_validate_names_bad_roles_signs_and_visits():
    cases = [
        # roles O and X differ, and still are not one O and one U
        (GaussCode((Passage("1", "O", 1), Passage("1", "X", 1))), [
            ("LabelRoleMismatch", "crossing 1 has passages O/X, needs exactly one O and one U"),
            ("LabelRoleMismatch", "bad role 'X'"),
        ]),
        (GaussCode((Passage("1", "O", 2), Passage("1", "U", 2))), [
            ("SignMismatch", "bad sign 2"),
            ("SignMismatch", "bad sign 2"),
        ]),
        (GaussCode((Passage("1", "O", 0), Passage("1", "U", 1))), [
            ("SignMismatch", "crossing 1 carries both signs"),
            ("SignMismatch", "bad sign 0"),
        ]),
        (SingularCode((DoublePointPassage("1", "a"), DoublePointPassage("1", "c"))), [
            ("LabelRoleMismatch", "double point 1 needs visit a then visit b, got a/c"),
            ("LabelRoleMismatch", "bad visit 'c'"),
        ]),
    ]
    for code, want in cases:
        assert [(d.kind, d.message) for d in validate(code)] == want


@given(st.integers(0, 10 ** 6))
def test_diagnose_agrees_with_the_oracle_on_hand_built_codes(seed):
    rng = random.Random(seed)
    passages = list(random_code(rng).passages)
    passages += [DoublePointPassage(rng.choice(LABELS), rng.choice("abc")) for _ in range(rng.randint(0, 3))]
    for _ in range(rng.randint(0, 4) if passages else 0):
        i = rng.randrange(len(passages))
        label = rng.choice((passages[i].label, *LABELS))
        passages[i] = Passage(label, rng.choice("OUX"), rng.choice((1, -1, 0, 2)))
    rng.shuffle(passages)
    code = SingularCode(tuple(passages))
    assert codes._diagnose(code) == oracle_diagnose(code)


def test_roundtrip_fixed_codes(corpus):
    for record in corpus:
        assert parse_gauss_code(format_code(record.code)) == record.code


@given(st.integers(0, 10 ** 6))
def test_roundtrip_random_codes(seed):
    # parse normalizes labels, so round-trip on the normalized form
    normalized = parse_gauss_code(format_code(random_code(random.Random(seed))))
    assert parse_gauss_code(format_code(normalized)) == normalized


# -- symmetries -------------------------------------------------------------

def test_mirror_swaps_roles_and_signs(trefoil):
    assert format_code(mirror(trefoil)) == "U1- O2- U3- O1- U2- O3-"


@given(st.integers(0, 10 ** 6))
def test_mirror_is_an_involution(seed):
    code = random_code(random.Random(seed))
    assert mirror(mirror(code)) == code


@given(st.integers(0, 10 ** 6))
def test_reverse_is_an_involution(seed):
    code = random_code(random.Random(seed))
    assert reverse_orientation(reverse_orientation(code)) == code


def test_rotate_basepoint_composes(trefoil):
    assert rotate_basepoint(trefoil, 6) == trefoil
    assert rotate_basepoint(rotate_basepoint(trefoil, 2), 4) == trefoil
    assert format_code(rotate_basepoint(trefoil, 1)) == "U2+ O3+ U1+ O2+ U3+ O1+"


@pytest.mark.parametrize("call, want", [
    (lambda t: rotate_basepoint(GaussCode(), 5), GaussCode()),
    (lambda t: apply_r1(t, 0, 2), (VassilievError, "sign must be +1 or -1, got 2")),
    (lambda t: apply_r1(t, 0, 1, "X"), (VassilievError, "first_role must be O or U, got 'X'")),
    (lambda t: is_realizable(GaussCode(t.passages[:-1])), (VassilievError, "odd number of passages")),
    (lambda t: apply_r2(t, 7, 0, "case-1"), (IndexOutOfRange, "position 7 not in 0..6")),
    (lambda t: parse_knot_table("[1]\n"), (ParseError, "line 1: record is not an object")),
    (lambda t: parse_knot_table('{"name": "k", "gauss": "", "expected": [1]}\n'),
     (ParseError, 'line 1: "expected" is not an object')),
])
def test_edge_cases_no_other_test_reaches(trefoil, call, want):
    assert outcome(lambda: call(trefoil)) == want


# -- Reidemeister moves -----------------------------------------------------

def test_r1_on_empty_code():
    out = apply_r1(parse_gauss_code(""), 0, 1, "O")
    assert format_code(out) == "O1+ U1+"
    assert v2(out) == 0 and v3(out) == 0


def test_r1_every_position_keeps_invariants(trefoil):
    for pos in range(len(trefoil) + 1):
        for sign in (1, -1):
            for role in ("O", "U"):
                out = apply_r1(trefoil, pos, sign, role)
                assert not validate(out)
                assert is_realizable(out)
                assert v2(out) == 1 and v3(out) == 1


def test_r1_bad_position(trefoil):
    with pytest.raises(IndexOutOfRange):
        apply_r1(trefoil, 7, 1)


def test_r2_on_empty_code():
    out = apply_r2(parse_gauss_code(""), 0, 0, "case-1")
    assert len(out.crossings) == 2
    assert not validate(out)
    assert {p.sign for p in out.passages} == {1, -1}
    assert v2(out) == 0


def test_r2_unknown_case(trefoil):
    with pytest.raises(UnsupportedOrientationCase):
        apply_r2(trefoil, 0, 0, "case-3")


def test_r2_bad_position(trefoil):
    with pytest.raises(IndexOutOfRange):
        apply_r2(trefoil, 0, 9, "case-1")


def test_r2_equal_positions_always_valid(trefoil):
    for pos in range(len(trefoil) + 1):
        for case in ("case-1", "case-2"):
            out = apply_r2(trefoil, pos, pos, case)
            assert is_realizable(out)
            assert v2(out) == 1 and v3(out) == 1


def test_r2_wrap_pair_always_valid(trefoil):
    for case in ("case-1", "case-2"):
        out = apply_r2(trefoil, 0, len(trefoil), case)
        assert is_realizable(out)
        assert v2(out) == 1


def test_r2_enumerated_insertions_stay_planar(corpus):
    for record in corpus:
        if not record.code.passages:
            continue
        found = list_r2_insertions(record.code)
        assert found, record.name
        for pa, pb, case in found:
            out = apply_r2(record.code, pa, pb, case)
            assert is_realizable(out)
            assert not validate(out)


def test_r2_rejects_face_incompatible_insertion(trefoil):
    # distinct non-wrap pairs valid in one orientation case only
    allowed = set(list_r2_insertions(trefoil))
    n = len(trefoil)
    rejected = 0
    for pa in range(1, n):
        for pb in range(pa + 1, n):
            for case in ("case-1", "case-2"):
                if (pa, pb, case) in allowed:
                    continue
                with pytest.raises(UnsupportedOrientationCase):
                    apply_r2(trefoil, pa, pb, case)
                rejected += 1
    assert rejected > 0


def test_r2_insertions_on_virtual_code_not_checked():
    # non-realizable inputs get the raw insertion, no face test
    virtual = parse_gauss_code(ABAB)
    out = apply_r2(virtual, 1, 3, "case-1")
    assert not validate(out)
    assert len(out.crossings) == 4


def test_r2_planarity_guard(monkeypatch, trefoil):
    # pretend the output of a valid insertion came out non-planar
    monkeypatch.setattr(codes, "is_realizable", lambda code: code == trefoil)
    with pytest.raises(CheckFailed):
        apply_r2(trefoil, 2, 2, "case-1")


def test_random_perturbations_deterministic(trefoil):
    a = random_perturbations(trefoil, 8, random.Random(3))
    b = random_perturbations(trefoil, 8, random.Random(3))
    assert [format_code(x) for x in a] == [format_code(x) for x in b]
    for out in a:
        assert not validate(out)
        assert is_realizable(out)


def test_random_perturbations_walk_faces_once_per_code(monkeypatch):
    # the invariance suite's draw: round robin over the table, seed 3
    walks = {}  # id -> [code, walks]; holding the code keeps its id unique
    walk = codes._faces

    def counted(code):
        walks.setdefault(id(code), [code, 0])[1] += 1
        return walk(code)

    monkeypatch.setattr(codes, "_faces", counted)
    table = codes.bundled_knot_table()
    rng = random.Random(3)
    for i in range(1000):
        random_perturbations(table[i % len(table)].code, 1, rng)
    assert walks
    assert max(count for _, count in walks.values()) == 1


def test_random_perturbations_list_r2_moves_once_per_code(monkeypatch):
    # the same draw: the bundled code each perturbation restarts from, and
    # every code a chain passes through, is listed at most once
    listings = {}  # id -> [code, listings]; holding the code keeps its id unique
    listing = codes.list_r2_insertions

    def counted(code):
        listings.setdefault(id(code), [code, 0])[1] += 1
        return listing(code)

    monkeypatch.setattr(codes, "list_r2_insertions", counted)
    table = codes.bundled_knot_table()
    rng = random.Random(3)
    for i in range(1000):
        random_perturbations(table[i % len(table)].code, 1, rng)
    assert listings
    assert max(count for _, count in listings.values()) == 1


def test_r2_from_position_zero_matches_listing(corpus, trefoil):
    # position 0 and position n enter the same word edge
    accepted = rejected = 0
    for code in [trefoil] + [r.code for r in corpus if r.code.passages]:
        n = len(code)
        listed = set(list_r2_insertions(code))
        for p in range(1, n):
            for case in ("case-1", "case-2"):
                if (p, n, case) in listed:
                    out = apply_r2(code, 0, p, case)
                    assert is_realizable(out)
                    assert apply_r2(code, p, 0, case) == out
                    accepted += 1
                else:
                    with pytest.raises(UnsupportedOrientationCase):
                        apply_r2(code, 0, p, case)
                    rejected += 1
    assert accepted and rejected


# -- planarity oracle -------------------------------------------------------

def test_genus_of_known_codes(trefoil):
    assert embedding_genus(trefoil) == 0
    assert embedding_genus(parse_gauss_code("O1+ U1+")) == 0
    assert embedding_genus(parse_gauss_code(ABAB)) == 1
    assert embedding_genus(parse_singular_code("X1a X2a X1b X2b")) == 1


def test_odd_euler_characteristic_raises(monkeypatch, trefoil):
    # three crossings, six edges: four faces would make V - E + F odd
    monkeypatch.setattr(codes, "_faces", lambda code: [()] * 4)
    with pytest.raises(CheckFailed):
        embedding_genus(trefoil)


def test_realizability_of_fixtures_and_controls(corpus):
    for record in corpus:
        assert is_realizable(record.code), record.name
    assert not is_realizable(parse_gauss_code(ABAB))


def has_even_interlacement(code: GaussCode) -> bool:
    """Necessary planarity condition: every chord meets evenly many others.

    Weaker than is_realizable but independent of it, which makes it a
    useful cross-check.
    """
    spans = [sorted(code.positions(l)) for l in code.crossings]
    for i, (a1, a2) in enumerate(spans):
        count = 0
        for j, (b1, b2) in enumerate(spans):
            if i != j and (a1 < b1 < a2) != (a1 < b2 < a2):
                count += 1
        if count % 2:
            return False
    return True


def test_even_interlacement_matches_genus_criterion():
    rng = random.Random(11)
    for _ in range(300):
        code = random_code(rng)
        if not has_even_interlacement(code):
            assert not is_realizable(code)


# -- knot table -------------------------------------------------------------

def test_parse_knot_table_happy_path():
    text = '{"name": "k", "gauss": "O1+ U1+"}\n\n{"name": "u", "gauss": ""}\n'
    records = parse_knot_table(text)
    assert [r.name for r in records] == ["k", "u"]
    assert records[0].expected is None


def test_parse_knot_table_empty():
    assert parse_knot_table("") == []


def test_parse_knot_table_error_lines():
    with pytest.raises(ParseError) as err:
        parse_knot_table('{"name": "k", "gauss": ""}\nnot json\n')
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_knot_table('{"name": "k", "gauss": "O1+ O1+"}\n')
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_knot_table('{"gauss": ""}\n')
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_knot_table('{"name": "k", "gauss": "", "expected": {"v2": "x"}}\n')
    assert err.value.line == 1


def test_knot_table_values_follow_the_expansion_file_rule():
    # rational strings or integers; a float or a boolean is refused
    (record,) = parse_knot_table('{"name": "k", "gauss": "", "expected": {"v2": 2, "v3": "-1/2"}}\n')
    assert record.expected == {"v2": 2, "v3": Fraction(-1, 2)}
    for value in ("0.5", "1e2", "true"):
        with pytest.raises(ParseError, match="rational string or an integer") as err:
            parse_knot_table('{"name": "u", "gauss": ""}\n{"name": "k", "gauss": "", "expected": {"v2": %s}}\n' % value)
        assert err.value.line == 2


def test_bundled_table_contents(corpus):
    names = [r.name for r in corpus]
    assert len(names) >= 6
    for needed in ("unknot", "3_1", "3_1m", "4_1", "5_1", "5_2"):
        assert needed in names
    for record in corpus:
        assert not validate(record.code)
