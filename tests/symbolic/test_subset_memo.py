"""Property tests for the memoized subset rendering and parsing.

``str(Range)`` and ``Subset.from_string`` back every serialized SDFG and
every content hash, so their memoized results must be indistinguishable
from a fresh computation, and structurally equal ranges must render to
the same bytes however they were built.
"""

from hypothesis import given, settings, strategies as st

from repro.symbolic import Integer, Range, Subset, Symbol, cache_snapshot, clear_caches

SYMS = ("N", "M", "i", "j")
CACHES = ("range_str", "subset_parse")

#: Affine bounds ``c*S + d`` (and plain integers): the shape of every
#: subset the frontend and the transformations produce.
bounds = st.one_of(
    st.integers(min_value=-16, max_value=64).map(Integer),
    st.builds(
        lambda c, s, d: c * Symbol(s) + d,
        st.integers(min_value=-3, max_value=3).filter(bool),
        st.sampled_from(SYMS),
        st.integers(min_value=-8, max_value=8),
    ),
)
steps = st.one_of(st.integers(min_value=1, max_value=4).map(Integer),
                  st.just(Symbol("S")))


def ranges() -> st.SearchStrategy:
    point = bounds.map(Range.point)
    symbolic = st.builds(Range, bounds, bounds)
    strided = st.builds(Range, bounds, bounds, steps)
    tiled = st.builds(Range, bounds, bounds, steps,
                      st.integers(min_value=2, max_value=8).map(Integer))
    return st.one_of(point, symbolic, strided, tiled)


subsets = st.lists(ranges(), min_size=1, max_size=4).map(Subset)


def fresh_render(s: Subset) -> str:
    return ", ".join(r._render() for r in s.ranges)


@settings(max_examples=300, deadline=None)
@given(s=subsets)
def test_memoized_render_equals_fresh_render(s):
    cached = str(s)  # may hit an earlier example's entry
    assert cached == fresh_render(s)
    assert all(str(r) == r._render() for r in s.ranges)
    clear_caches()
    assert str(s) == cached


@settings(max_examples=300, deadline=None)
@given(r=ranges())
def test_structurally_equal_ranges_render_identically(r):
    twin = Range(r.start + 0, r.end * 1, Integer(1) * r.step, r.tile + 0)
    assert twin == r
    assert str(twin) == str(r) == r._render()


@settings(max_examples=300, deadline=None)
@given(s=subsets)
def test_parse_of_render_roundtrips(s):
    text = str(s)
    parsed = Subset.from_string(text)
    assert parsed == s
    clear_caches()
    assert Subset.from_string(text) == parsed


@settings(max_examples=100, deadline=None)
@given(s=subsets)
def test_named_caches_report_monotonic_counters(s):
    before = cache_snapshot()
    Subset.from_string(str(s))
    Subset.from_string(str(s))
    after = cache_snapshot()
    for name in CACHES:
        h0, m0 = before.get(name, (0, 0))
        h1, m1 = after[name]
        assert h1 >= h0 and m1 >= m0
        assert (h1 + m1) > (h0 + m0)
    # The second parse of the same text is a hit.
    assert after["subset_parse"][0] >= before.get("subset_parse", (0, 0))[0] + 1
