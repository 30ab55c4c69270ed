import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nlo.words as words_mod
from nlo.words import (
    MAX_LETTERS,
    MESSAGE_WORD_CHARS,
    Word,
    abbreviate_word,
    cyclic_reduce,
    exponent_sum,
    format_word,
    is_cyclic_rotation,
    is_positive,
    letter_text,
    parse_word,
    substitute,
    word_from_text,
)
import reference_parse
from rewrite_search import _insertion_words

raw_syllables = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(-4, 4)), max_size=8
)
words = raw_syllables.map(Word)
xy_words = st.lists(
    st.tuples(st.sampled_from("xy"), st.integers(-3, 3)), max_size=6
).map(Word)


def test_reduce_inverse_cancellation():
    assert Word([("a", 1), ("a", -1)]) == Word()


def test_reduce_adjacent_merge():
    assert Word([("a", 2), ("b", -1), ("b", 1), ("a", 1)]) == parse_word("a^3")


def test_reduce_family_relator_concatenation():
    # LHS * RHS^-1 for the (3,5;2,1)-instance of the two-bridge style relator.
    lhs = parse_word("a^2 b^-1 a^2")
    rhs = parse_word("b^2 a b^2")
    assert lhs * ~rhs == parse_word("a^2 b^-1 a^2 b^-2 a^-1 b^-2")


def test_invert_examples():
    assert ~Word() == Word()
    assert ~parse_word("a^2 b^-1") == parse_word("b a^-2")
    w = parse_word("a^2 b^-1 a^2")
    assert ~~w == w


def test_concat_and_power():
    assert parse_word("a^-1 b^2") * parse_word("b^-2 a") == Word()
    assert parse_word("a b") ** 3 == parse_word("a b a b a b")
    assert parse_word("a^-1 b^2") ** -2 == parse_word("b^-2 a b^-2 a")


def test_substitute_examples():
    # b^4 a with a -> (xy)x and b -> xy lands on (xy)^5 x.
    images = {"a": parse_word("x y x"), "b": parse_word("x y")}
    got = substitute(parse_word("b^4 a"), images)
    assert got == parse_word("x y") ** 5 * parse_word("x")
    # a^-1 b^k with a -> (yx)^(k-1) y, b -> yx collapses to x at k = 2.
    images = {"a": parse_word("y x y"), "b": parse_word("y x")}
    assert substitute(parse_word("a^-1 b^2"), images) == parse_word("x")
    assert substitute(Word(), {"a": parse_word("x")}) == Word()


def test_substitute_missing_image():
    with pytest.raises(ValueError, match="no image for generator 'b'"):
        substitute(parse_word("a b"), {"a": parse_word("x")})


def test_exponent_sum_examples():
    w = parse_word("a^2 b^-1 a^2 b^-2 a^-1 b^-2")
    assert exponent_sum(w, "a") == 3
    assert exponent_sum(w, "b") == -5
    assert exponent_sum(Word(), "a") == 0


def test_positivity_examples():
    w = parse_word("x y") ** 5 * parse_word("x")
    assert is_positive(w)
    assert "x" in w.generators()
    assert not is_positive(parse_word("x^-1 y x"))
    assert not is_positive(Word())


def test_parse_format_examples():
    assert parse_word("a^2 b^-1 a^2").syllables == (("a", 2), ("b", -1), ("a", 2))
    assert parse_word("") == Word()
    assert format_word(parse_word("a a a")) == "a^3"
    assert format_word(Word()) == ""


def test_abbreviate_word_bounds_long_words():
    short = parse_word("a^-1 b a^1000000")
    assert abbreviate_word(short) == format_word(short)
    assert repr(short) == "Word('a^-1 b a^1000000')"
    long = parse_word("x^1000000 y^-1") ** 1000
    text = abbreviate_word(long)
    assert len(text) <= MESSAGE_WORD_CHARS + len(" … (2000 syllables)")
    assert text.startswith("x^1000000 y^-1 x^1000000 y^-1 ")
    assert text.endswith(" y^-1 … (2000 syllables)")
    assert len(repr(long)) < 2 * MESSAGE_WORD_CHARS


def test_parse_errors_carry_position():
    with pytest.raises(ValueError) as err:
        parse_word("a^2 B")
    assert str(err.value).endswith("(at position 4)")
    with pytest.raises(ValueError, match=r"malformed exponent \(at position 1\)"):
        parse_word("a^")
    with pytest.raises(ValueError, match=r"exponent without a generator \(at position 0\)"):
        parse_word("^2")


def test_letters_round_trip():
    w = parse_word("a^3 b^-2 a")
    assert letter_text(w) == "aaaBBa"
    assert word_from_text(letter_text(w)) == w
    assert w.letter_length == 6


def test_large_exponents_stay_symbolic():
    w = parse_word("a") ** 10**9 * parse_word("b^-1")
    assert w.syllables == (("a", 10**9), ("b", -1))
    with pytest.raises(ValueError, match="MAX_LETTERS"):
        letter_text(w)
    with pytest.raises(ValueError, match="MAX_LETTERS"):
        is_cyclic_rotation(w, w)


@pytest.mark.parametrize(
    "base, n",
    [("a b", MAX_LETTERS // 2), ("a b", -(MAX_LETTERS // 2)),
     ("c a b c^-1", MAX_LETTERS // 2 - 1), ("a b c a", (MAX_LETTERS - 1) // 3)],
    ids=["plain", "inverse", "conjugate", "folded"],
)
def test_power_of_max_letters_syllables_builds(base, n):
    assert len((parse_word(base) ** n).syllables) == MAX_LETTERS


@pytest.mark.parametrize(
    "base, n, size",
    [("a b a^2", MAX_LETTERS // 2, MAX_LETTERS + 1),
     ("a b a^2", -(MAX_LETTERS // 2), MAX_LETTERS + 1),
     ("c a b c^-1", MAX_LETTERS // 2, MAX_LETTERS + 2),
     ("a b", 10**30, 2 * 10**30)],
    ids=["folded", "inverse", "conjugate", "huge"],
)
def test_power_over_max_letters_syllables_is_refused(base, n, size):
    with pytest.raises(ValueError) as err:
        parse_word(base) ** n
    assert str(err.value) == (
        f"a power of ({base}) would have {size} syllables, "
        f"over the cap MAX_LETTERS = {MAX_LETTERS}"
    )


def test_power_refusal_abbreviates_its_base():
    long = parse_word("x^1000000 y^-1") ** 1000
    with pytest.raises(ValueError) as err:
        long ** 1000
    message = str(err.value)
    assert f"… (2000 syllables)) would have {2000 * 1000} syllables" in message
    assert len(message) < 2 * MESSAGE_WORD_CHARS


# Below 10^MESSAGE_WORD_CHARS the size is quoted whole; from there on it is
# named by that bound only.
@pytest.mark.parametrize("size, count", [
    (10**MESSAGE_WORD_CHARS - 1, f"{10**MESSAGE_WORD_CHARS - 1} letters"),
    (10**MESSAGE_WORD_CHARS, f"a count of letters of over {MESSAGE_WORD_CHARS} digits"),
    (10**4000, f"a count of letters of over {MESSAGE_WORD_CHARS} digits"),
], ids=["below", "at", "far-above"])
def test_over_cap_bounds_the_size_it_names(size, count):
    assert str(words_mod.over_cap("the word", size, "letters")) == (
        f"the word would have {count}, over the cap MAX_LETTERS = {MAX_LETTERS}")


# Products and substitutions join reduced pieces; the running total is
# held to MAX_LETTERS syllables after the seam reduces, before it is built.
HALF = parse_word("a b") ** (MAX_LETTERS // 4)


def join_refusal(size):
    return f"a product would have {size} syllables, over the cap MAX_LETTERS = {MAX_LETTERS}"


@pytest.mark.parametrize(
    "left, right",
    [(HALF, HALF), (HALF * parse_word("c"), parse_word("c^-1") * HALF)],
    ids=["plain", "seam-cancels"],
)
def test_product_of_max_letters_syllables_builds(left, right):
    assert len((left * right).syllables) == MAX_LETTERS


@pytest.mark.parametrize(
    "left, right",
    [(HALF, HALF * parse_word("c")), (HALF * parse_word("c"), parse_word("c^2") * HALF)],
    ids=["plain", "seam-merges"],
)
def test_product_over_max_letters_syllables_is_refused(left, right):
    with pytest.raises(ValueError) as err:
        left * right
    assert str(err.value) == join_refusal(MAX_LETTERS + 1)


def test_substitution_running_total_is_held_to_max_letters():
    xy = parse_word("x y") ** (MAX_LETTERS // 4)
    w = parse_word("a b")
    assert len(substitute(w, {"a": xy, "b": xy}).syllables) == MAX_LETTERS
    with pytest.raises(ValueError) as err:
        substitute(w, {"a": xy, "b": xy * parse_word("z")})
    assert str(err.value) == join_refusal(MAX_LETTERS + 1)
    # The images meet in a seam that cancels z, so the raw concatenation
    # is over the cap but the reduced result is not.
    images = {"a": xy * parse_word("z"), "b": parse_word("z^-1") * xy}
    assert len(substitute(w, images).syllables) == MAX_LETTERS


def test_substitution_emitting_over_the_budget_is_refused(monkeypatch):
    # b's image cancels a's, so the result stays empty while the image
    # syllables emitted reach the budget, here lowered to 100.
    monkeypatch.setattr(words_mod, "SUBSTITUTE_BUDGET", 100)
    xy = parse_word("x y") ** 5
    images = {"a": xy, "b": ~xy}
    assert substitute(parse_word("a b") ** 5, images) == Word()
    with pytest.raises(ValueError) as err:
        substitute(parse_word("a b") ** 5 * parse_word("a"), images)
    assert str(err.value) == (
        "a substitution would emit 110 image syllables, "
        "over the budget SUBSTITUTE_BUDGET = 100"
    )


def test_substitutions_sharing_a_count_share_one_budget(monkeypatch):
    # Each call has a budget of its own; calls that pass one count share it.
    monkeypatch.setattr(words_mod, "SUBSTITUTE_BUDGET", 100)
    xy = parse_word("x y") ** 5
    images = {"a": xy, "b": ~xy}
    w = parse_word("a b") ** 3
    for _ in range(2):
        assert substitute(w, images) == Word()
    spent = [0]
    assert substitute(w, images, spent) == Word()
    assert spent == [60]
    with pytest.raises(ValueError) as err:
        substitute(w, images, spent)
    assert str(err.value) == (
        "a substitution would emit 110 image syllables, "
        "over the budget SUBSTITUTE_BUDGET = 100"
    )


def test_cyclic_reduce():
    assert cyclic_reduce(parse_word("a^-1 b a")) == parse_word("b")
    assert cyclic_reduce(parse_word("a b a^2")) == parse_word("b a^3")
    assert cyclic_reduce(parse_word("a b")) == parse_word("a b")


def test_rotations_and_cyclic_rotation():
    w = parse_word("a^2 b")
    inserted = _insertion_words(w)
    assert len(inserted) == 6
    rots = inserted[:3]
    assert parse_word("a b a") in rots and parse_word("b a^2") in rots
    assert all(is_cyclic_rotation(r, w) for r in rots)
    assert all(is_cyclic_rotation(r, ~w) for r in inserted[3:])
    assert not is_cyclic_rotation(parse_word("a b"), parse_word("a b^-1"))


@given(raw_syllables)
def test_reduce_idempotent(raw):
    w = Word(raw)
    assert Word(w.syllables) == w


@given(words, words, words)
def test_concat_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(words)
def test_invert_involution(w):
    assert ~~w == w
    assert w * ~w == Word()


@given(words, st.integers(-5, 5), st.integers(-5, 5))
def test_power_addition(w, m, n):
    assert w ** (m + n) == w ** m * w ** n


@given(words, words, xy_words, xy_words)
def test_substitute_is_homomorphism(u, v, img_a, img_b):
    images = {"a": img_a, "b": img_b}
    assert substitute(u * v, images) == substitute(u, images) * substitute(v, images)
    assert substitute(~u, images) == ~substitute(u, images)


@given(words, xy_words, xy_words)
def test_substitute_matches_validating_construction(w, img_a, img_b):
    # substitute skips the letter check; the result must equal a word
    # built, with the check, from the raw concatenation of image powers.
    images = {"a": img_a, "b": img_b}
    raw = [syl for g, e in w.syllables for syl in (images[g] ** e).syllables]
    assert substitute(w, images).syllables == Word(raw).syllables
    with pytest.raises(ValueError):
        Word([("A", 1)])


@given(words, words)
def test_exponent_sum_additive(u, v):
    for g in "ab":
        assert exponent_sum(u * v, g) == exponent_sum(u, g) + exponent_sum(v, g)


@given(words, words)
def test_positive_closed_under_concat(u, v):
    if is_positive(u) and is_positive(v):
        assert is_positive(u * v)


@given(raw_syllables)
def test_parse_format_round_trip(raw):
    w = Word(raw)
    assert Word(parse_word(format_word(w)).syllables) == w


# Terms of the word grammar, each with the raw syllable it denotes, and
# the whitespace (possibly none) that may precede a term.
def grammar_term(gen, exp):
    if exp is None:
        return gen, (gen, 1)
    return f"{gen}^{exp}", (gen, exp)


grammar_terms = st.builds(
    grammar_term, st.sampled_from("abcxyz"), st.one_of(st.none(), st.integers(-12, 12))
)
separators = st.sampled_from(["", " ", "  ", "\t", "\n"])


@given(st.lists(st.tuples(separators, grammar_terms), max_size=10), separators)
def test_parse_word_matches_validating_construction(terms, tail):
    # parse_word reduces without checking letters again; its grammar
    # admits only a-z, so it must equal a word built with the check.
    text = "".join(sep + term for sep, (term, _) in terms) + tail
    assert parse_word(text).syllables == Word([syl for _, (_, syl) in terms]).syllables


# parse_word against the term-by-term tokenizer it replaced, on any text
# over a few letters, other characters, carets, signs, digits and
# whitespace: the same word, or the same error at the same position.
parser_text = st.text(alphabet="ab zA$^-0123 \t\n", max_size=24)


@given(parser_text)
def test_parse_word_matches_reference_tokenizer(text):
    def parsed(parse):
        try:
            return parse(text)
        except ValueError as exc:
            return str(exc)

    assert parsed(parse_word) == parsed(reference_parse.parse_word)


@pytest.mark.parametrize(
    "text, char, position",
    [("a\u3000b^2\x1c", "\u3000", 1), ("a b^2\x1c", "\x1c", 5), ("\xa0a", "\xa0", 0)],
    ids=["ideographic-space", "file-separator", "no-break-space"],
)
def test_parse_word_separates_terms_by_ascii_whitespace_only(text, char, position):
    # Unicode whitespace used to separate terms too: "a\u3000b^2\x1c" read as a b^2.
    with pytest.raises(ValueError) as err:
        parse_word(text)
    assert str(err.value) == f"unexpected character {char!r} (at position {position})"
    assert parse_word(" \ta\r\nb^2\f\v") == parse_word("a b^2")


@pytest.mark.parametrize(
    "text, position", [("a^٣ b^２", 1), ("a^3 b^２", 5)], ids=["arabic-indic", "fullwidth"]
)
def test_parse_word_refuses_non_ascii_digits(text, position):
    # An Arabic-Indic three and a fullwidth two: the tokenizer's \d read
    # them as a^3 b^2, but the grammar writes ASCII digits only.
    assert reference_parse.parse_word(text) == parse_word("a^3 b^2")
    with pytest.raises(ValueError) as err:
        parse_word(text)
    assert str(err.value) == f"malformed exponent (at position {position})"


@pytest.mark.parametrize(
    "text, position",
    [("a^" + "9" * 5000, 1), ("b a^2 c^-" + "1" * 641, 7)],
    ids=["5000-digits", "641-digits"],
)
def test_parse_word_refuses_an_exponent_of_more_than_640_digits(text, position):
    # int() may refuse more digits, depending on the interpreter; the
    # grammar refuses them alike everywhere, at the exponent's caret.
    with pytest.raises(ValueError) as err:
        parse_word(text)
    assert str(err.value) == f"malformed exponent (at position {position})"
    assert parse_word("a^-" + "9" * 640).syllables == (("a", -int("9" * 640)),)


@pytest.mark.parametrize(
    "text, terms",
    [("x" * (MAX_LETTERS + 1), MAX_LETTERS + 1),
     ("x y " * (MAX_LETTERS // 2 + 1), MAX_LETTERS + 2),
     ("a^-12 " * (MAX_LETTERS + 1), MAX_LETTERS + 1)],
    ids=["letters", "spaced", "exponents"],
)
def test_parse_word_refuses_more_than_max_letters_terms_before_the_match(text, terms):
    # Reading keeps a syllable a term; the refusal costs only the
    # characters that counting keeps.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            parse_word(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        f"the parsed word would have {terms} terms, over the cap MAX_LETTERS = {MAX_LETTERS}"
    )
    assert peak < len(text) + 2**20


@pytest.mark.parametrize(
    "text, syllables, bound",
    [("x y " * 50_000, 100_000, 100_000 * 128), ("x" * 100_000, 1, 2**20)],
    ids=["alternating", "one-run"],
)
def test_parse_word_reads_a_legal_text_in_bounded_memory(text, syllables, bound):
    # One pass keeps the syllables read so far, some 72 bytes each, and one
    # match at a time, so a run of one letter costs next to nothing.  A
    # grammar match over the whole text held some 270 bytes a term.
    tracemalloc.start()
    try:
        word = parse_word(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(word.syllables) == syllables
    assert peak < bound


def test_parse_word_finds_an_error_past_a_long_whitespace_run():
    # Terms are matched where the last one ended, so a run of whitespace
    # before a bad character is scanned once, not from each position.
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        parse_word("a" + " " * MAX_LETTERS + "?")
    assert time.perf_counter() - start < 2.0
    assert str(err.value) == f"unexpected character '?' (at position {MAX_LETTERS + 1})"


def test_parse_word_counts_terms_not_characters(monkeypatch):
    monkeypatch.setattr(words_mod, "MAX_LETTERS", 1000)
    assert len(parse_word("x y " * 500).syllables) == 1000
    assert parse_word(" " * 5000 + "b^-" + "9" * 640 + "\n" * 5000) == parse_word(
        "b^-" + "9" * 640)
    with pytest.raises(ValueError, match="would have 1001 terms, over the cap MAX_LETTERS = 1000"):
        parse_word("x y " * 500 + "x")


# The seam product and power against the reference full reduction.


def ref_mul(u, v):
    return Word(u.syllables + v.syllables)


def ref_inv(w):
    return Word(tuple((g, -e) for g, e in reversed(w.syllables)))


def ref_pow(w, n):
    base = w if n >= 0 else ref_inv(w)
    out = Word()
    for _ in range(abs(n)):
        out = ref_mul(out, base)
    return out


# Pairs (x y, y^-1 z) whose seam cancels all of y, then meets x against z.
cancelling_pairs = st.tuples(words, words, words).map(
    lambda t: (ref_mul(t[0], t[1]), ref_mul(ref_inv(t[1]), t[2]))
)


@given(words, words)
def test_seam_mul_matches_reference(u, v):
    got = u * v
    assert got.syllables == ref_mul(u, v).syllables
    assert Word(got.syllables).syllables == got.syllables


@given(cancelling_pairs)
def test_seam_mul_heavy_cancellation(pair):
    u, v = pair
    assert (u * v).syllables == ref_mul(u, v).syllables
    assert (u * ref_inv(u)).syllables == ()
    assert (ref_inv(v) * v).syllables == ()


@given(words)
def test_seam_invert_matches_reference(w):
    assert (~w).syllables == ref_inv(w).syllables


@given(words, st.integers(-7, 7))
def test_seam_power_matches_reference(w, n):
    assert (w ** n).syllables == ref_pow(w, n).syllables


def test_input_boundary_still_validates():
    with pytest.raises(ValueError):
        Word([("A", 1)])
    with pytest.raises(ValueError):
        Word([("ab", 1)])
    with pytest.raises(ValueError, match=r"malformed exponent \(at position 1\)"):
        parse_word("a^")


# The closed-form power and the seam-only substitution against the full
# reduction.  Each strategy below reaches one branch of the closed form:
# the core c of w = u c u^-1 is one syllable, has ends over one generator,
# or has ends over distinct generators; the empty abc_words draw is the
# identity, and exponents always include 0 and +-1.

abc_words = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(-4, 4)), max_size=6
).map(Word)
nonzero = st.integers(-4, 4).filter(bool)
exponents = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-40, 40))


def conjugate(u, c):
    return ref_mul(ref_mul(u, c), ref_inv(u))


@st.composite
def shared_end_cores(draw):
    # g^e0 m g^e1 with m nonempty over the other two generators; e0 + e1
    # may be 0, which makes the core a conjugate of m.
    g = draw(st.sampled_from("abc"))
    others = [h for h in "abc" if h != g]
    middle = draw(
        st.lists(st.tuples(st.sampled_from(others), nonzero), min_size=1, max_size=4)
        .map(Word)
        .filter(bool)
    )
    return Word([(g, draw(nonzero)), *middle.syllables, (g, draw(nonzero))])


single_syllable_cores = st.tuples(st.sampled_from("abc"), nonzero).map(
    lambda s: Word([s])
)
cores = st.one_of(abc_words, shared_end_cores(), single_syllable_cores)


def check_power(w, n):
    got = w ** n
    assert got.syllables == ref_pow(w, n).syllables
    assert Word(got.syllables).syllables == got.syllables


@given(abc_words, cores, exponents)
def test_closed_power_of_conjugate_matches_reference(u, c, n):
    check_power(conjugate(u, c), n)


@given(shared_end_cores(), exponents)
def test_closed_power_shared_end_core_matches_reference(c, n):
    check_power(c, n)


@given(abc_words, single_syllable_cores, exponents)
def test_closed_power_single_syllable_core_matches_reference(u, c, n):
    check_power(conjugate(u, c), n)
    g, e = c.syllables[0]
    if n:
        assert (c ** n).syllables == ((g, e * n),)


@given(abc_words, xy_words, xy_words, xy_words)
def test_substitute_cascading_seams_match_reference(w, img_a, z_b, z_c):
    # b's image starts with the inverse of a's and c's with the inverse of
    # b's, so a seam can cancel a whole image and go on into the one before.
    img_b = ref_mul(ref_inv(img_a), z_b)
    img_c = ref_mul(ref_inv(img_b), z_c)
    images = {"a": img_a, "b": img_b, "c": img_c}
    raw = [syl for g, e in w.syllables for syl in ref_pow(images[g], e).syllables]
    got = substitute(w, images)
    assert got.syllables == Word(raw).syllables
    assert substitute(parse_word("a b"), images) == z_b
    assert substitute(parse_word("b c"), images) == z_c


# substitute builds each distinct syllable's image power once a call and
# reuses it.  The strategies repeat syllables: powers of a word, and words
# drawn from a pool of at most three syllables.

syllable_pools = st.lists(st.tuples(st.sampled_from("abc"), nonzero), min_size=1, max_size=3)


@st.composite
def repeating_words(draw):
    if draw(st.booleans()):
        return draw(abc_words) ** draw(st.integers(-6, 6))
    pool = draw(syllable_pools)
    return Word(draw(st.lists(st.sampled_from(pool), max_size=16)))


@given(repeating_words(), xy_words, xy_words, xy_words)
def test_substitute_repeated_syllables_match_reference(w, img_a, img_b, z_c):
    # c's image starts with the inverse of a's, so reused pieces also meet
    # at seams that cancel.
    images = {"a": img_a, "b": img_b, "c": ref_mul(ref_inv(img_a), z_c)}
    raw = [syl for g, e in w.syllables for syl in ref_pow(images[g], e).syllables]
    assert substitute(w, images).syllables == Word(raw).syllables


def test_substitute_missing_image_after_repeated_syllables():
    images = {"a": parse_word("x y"), "b": parse_word("y^-1 x")}
    with pytest.raises(ValueError, match="no image for generator 'c'"):
        substitute(parse_word("a b") ** 4 * parse_word("c a"), images)


def test_substitute_builds_each_distinct_image_power_once(monkeypatch):
    calls = []
    power = Word.__pow__

    def counting_pow(self, n):
        calls.append((self, n))
        return power(self, n)

    monkeypatch.setattr(Word, "__pow__", counting_pow)
    images = {"a": parse_word("x y"), "b": parse_word("y^-1 x^2"), "c": parse_word("z")}
    w = parse_word("a b^2 a b^2 c^-1 a b^2 a^-1 c^-1")
    got = substitute(w, images)
    assert len(calls) == len(set(w.syllables)) == 4
    raw = [syl for g, e in w.syllables for syl in ref_pow(images[g], e).syllables]
    assert got.syllables == Word(raw).syllables


# The linear cyclic-rotation test against the quadratic letter-list scan
# it replaced.  The references unroll from the syllables themselves.


def ref_letters(w):
    return [(g, 1 if e > 0 else -1) for g, e in w.syllables for _ in range(abs(e))]


def ref_is_cyclic_rotation(u, v):
    a = ref_letters(u)
    b = ref_letters(v)
    if len(a) != len(b):
        return False
    if not a:
        return True
    doubled = b + b
    return any(doubled[i : i + len(a)] == a for i in range(len(b)))


@given(abc_words, abc_words, st.integers(0, 30), st.booleans())
def test_cyclic_rotation_matches_reference(u, v, offset, rotate):
    # Rotating u's letters gives true cases; Word() reduces the seam of a
    # rotation of a word that is not cyclically reduced, as it may.
    if rotate:
        seq = ref_letters(u)
        k = offset % len(seq) if seq else 0
        v = Word(seq[k:] + seq[:k])
    for a, b in ((u, v), (u, ~v), (v, u), (u, u)):
        assert is_cyclic_rotation(a, b) == ref_is_cyclic_rotation(a, b)


# The one-pass cyclic reduction against the fold that copied the syllable
# list once per folded end.  Conjugates u c u^-1 peel u before folding the
# ends of c; plain words often stop at once.


def ref_cyclic_reduce(w):
    syl = list(w.syllables)
    while len(syl) >= 2 and syl[0][0] == syl[-1][0]:
        gen = syl[0][0]
        merged = syl[0][1] + syl[-1][1]
        syl = syl[1:-1]
        if merged != 0:
            syl.append((gen, merged))
            break
    return Word(syl)


@given(st.one_of(abc_words, st.tuples(abc_words, cores).map(lambda t: conjugate(*t))))
def test_cyclic_reduce_matches_reference(w):
    got = cyclic_reduce(w)
    assert got.syllables == ref_cyclic_reduce(w).syllables
    assert Word(got.syllables).syllables == got.syllables


# Letter text back to a word without validation, against Word(...) of the
# same letters.


@given(abc_words)
def test_word_from_text_round_trip(w):
    assert word_from_text(letter_text(w)) == w


@given(cancelling_pairs, st.integers(0, 30))
def test_word_from_text_reduces_a_cancelling_seam(pair, cut):
    # Splice the letters of v into those of u, as a rewrite does: at the
    # end of u the seam cancels, elsewhere it may.  The result must equal
    # the validated construction.
    u, v = pair
    text_u, text_v = letter_text(u), letter_text(v)
    for k in (len(text_u), cut % (len(text_u) + 1)):
        spliced = text_u[:k] + text_v + text_u[k:]
        letters = ref_letters(u)[:k] + ref_letters(v) + ref_letters(u)[k:]
        assert word_from_text(spliced).syllables == Word(letters).syllables
