"""Fixed-seed fuzzing of `nlo verify` on mutated certificate documents.

Each example takes a valid `nlo certify` certificate and applies one to
three mutations: a scalar swapped for a value of another JSON type, an
integer nudged by up to 2, a dict key dropped, the `backward` keys
reordered, or one word inflated, its exponents scaled by up to 10^9 or
its syllables repeated.  A second strategy only inflates, with exponents
scaled by 10^6 to 10^9, so that more of its documents reach the
MAX_LETTERS budgets, and a third inflates only the `forward` images of
more than one syllable, whose powers grow when they are substituted.  A
fourth writes out repeated syllables in the `backward` images of x and y,
w^n and w^-n, and in the first `forward` image, (x y)^N, so that the
round trip substitutes pieces that cancel each other and only
SUBSTITUTE_BUDGET bounds the work.  Whatever the document, `verify` must
answer PASS with exit 0 or FAIL with exit 2, quickly, in a bounded
document, and never with a traceback.
"""

import contextlib
import copy
import io
import json
import time
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from nlo.cli import EXIT_OK, EXIT_VERIFY, main
from nlo.words import format_word, parse_word


def certificate_doc(flags: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["certify", *flags.split()]) == EXIT_OK
    return json.loads(out.getvalue())["content"]["certificate"]


# One certificate with an empty trace and one with a one-step trace.
BASES = (
    certificate_doc("--p 3 --k 2 --sign -1 --ell 2 --m 1"),
    certificate_doc("--p 4 --k 1 --sign -1 --ell 2 --m 1"),
)

SCALARS = st.one_of(
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=8),
    st.none(),
    st.lists(st.integers(-3, 3), max_size=2),
)


# Characters an inflated word's text may reach, so that three inflations
# keep a document under about 100 KB.
INFLATED_CHARS = 30_000


def paths(node, prefix=()):
    """The path of every value below ``node``, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def locate(doc, path):
    """The container holding ``path``'s value, and its key there."""
    for key in path[:-1]:
        doc = doc[key]
    return doc, path[-1]


def is_word_path(path):
    """True for the path of a word-valued field of a certificate."""
    if len(path) == 1:
        return path == ("positive_s",)
    if len(path) != 3:
        return False
    if path[0] == "generator_change":
        return path[1] in ("forward", "backward")
    return path[0] == "trace" and path[2] in ("lhs", "rhs")


def inflate(draw, doc, digits=st.integers(1, 9), where=is_word_path):
    """Scale the exponents of one word, at a path that ``where`` accepts,
    by 10^digits, or repeat its syllables."""
    slots = [locate(doc, path) for path in paths(doc) if where(path)]
    slots = [(c, k) for c, k in slots if isinstance(c[k], str)]
    if not slots:
        return
    container, key = draw(st.sampled_from(slots))
    try:
        syllables = parse_word(container[key]).syllables
    except ValueError:
        return
    if draw(st.booleans()):
        factor = 10 ** draw(digits)
        text = " ".join(f"{g}^{e * factor}" for g, e in syllables)
    else:
        once = container[key] + " "
        text = once * draw(st.integers(2, max(2, INFLATED_CHARS // len(once))))
    if len(text) <= INFLATED_CHARS:
        container[key] = text


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        slots = [locate(doc, path) for path in paths(doc)]
        kind = draw(st.sampled_from(("retype", "nudge", "drop", "reorder", "inflate")))
        if kind == "retype":
            leaves = [(c, k) for c, k in slots if not isinstance(c[k], (dict, list))]
            container, key = draw(st.sampled_from(leaves))
            container[key] = draw(SCALARS)
        elif kind == "nudge":
            ints = [(c, k) for c, k in slots if type(c[k]) is int]
            if ints:
                container, key = draw(st.sampled_from(ints))
                container[key] += draw(st.sampled_from((-2, -1, 1, 2)))
        elif kind == "drop":
            keyed = [(c, k) for c, k in slots if isinstance(c, dict)]
            container, key = draw(st.sampled_from(keyed))
            del container[key]
        elif kind == "inflate":
            inflate(draw, doc)
        else:
            change = doc.get("generator_change")
            backward = change.get("backward") if isinstance(change, dict) else None
            if isinstance(backward, dict):
                change["backward"] = dict(reversed(list(backward.items())))
    return doc


@st.composite
def inflated_documents(draw):
    """A certificate with one to three words inflated and nothing else
    changed.  Smaller factors build no power near MAX_LETTERS syllables."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        inflate(draw, doc, st.integers(6, 9))
    return doc


@st.composite
def inflated_forward_documents(draw):
    """A certificate with one to three inflations of the ``forward``
    images of generators whose image has more than one syllable, and
    nothing else changed.  A power of such an image does not stay one
    syllable, so substituting it builds long words."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    forward = doc["generator_change"]["forward"]
    long_images = {(g,) for g, w in forward.items() if len(parse_word(w).syllables) > 1}

    def is_long_image(path):
        return path[:2] == ("generator_change", "forward") and path[2:] in long_images

    for _ in range(draw(st.integers(1, 3))):
        inflate(draw, doc, st.integers(6, 9), is_long_image)
    return doc


@st.composite
def repeated_image_documents(draw):
    """A certificate whose ``backward`` images of x and y are one of them,
    w, written out n times and w^-1 written out n times, and whose first
    ``forward`` image is x y written out N times; nothing else changed.
    The round trip, which checks that image first, then substitutes 2N
    pieces that each cancel the last, a seam walk that grows as N * n."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    forward, backward = (doc["generator_change"][side] for side in ("forward", "backward"))
    x, y = backward
    w = parse_word(backward[draw(st.sampled_from((x, y)))])
    for gen, image in ((x, w), (y, ~w)):
        once = format_word(image) + " "
        backward[gen] = once * draw(st.integers(1, INFLATED_CHARS // len(once)))
    forward[next(iter(forward))] = f"{x} {y} " * draw(st.integers(1, INFLATED_CHARS // 4))
    return doc


def verify_answers(doc: dict) -> str:
    """Run `verify` on ``doc`` and hold it to a bounded PASS or FAIL; the
    printed document."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with (
        mock.patch("sys.stdin", io.StringIO(json.dumps(doc))),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main(["verify", "--certificate", "-"])
    assert time.perf_counter() - start < 1.0
    assert code in (EXIT_OK, EXIT_VERIFY)
    assert err.getvalue() == ""
    assert len(out.getvalue().encode()) < 4096
    verdict = json.loads(out.getvalue())["content"]["verdict"]
    assert verdict == ("PASS" if code == EXIT_OK else "FAIL")
    return out.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mutated_documents())
def test_verify_answers_every_mutated_certificate(doc):
    verify_answers(doc)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(inflated_documents())
def test_verify_answers_every_inflated_certificate(doc):
    verify_answers(doc)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(inflated_forward_documents())
def test_verify_answers_every_inflated_forward_image(doc):
    verify_answers(doc)


# Fewer examples: about one in five walks to the budget, 0.2 s each.
@settings(derandomize=True, max_examples=30, deadline=None)
@given(repeated_image_documents())
def test_verify_answers_every_repeated_image_pair(doc):
    verify_answers(doc)
