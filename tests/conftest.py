import random

from hypothesis import strategies as st

from esakia.lattices import birkhoff_lattice
from esakia.posets import FinitePoset, enumerate_posets, iter_bits
from esakia.spaces import enumerate_topologies, open_frame

_LETTERS = "abcdefgh"


@st.composite
def posets(draw, max_size: int = 5):
    """Random poset: a DAG on index-ordered pairs, transitively closed by
    the constructor."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    labels = list(_LETTERS[:n])
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda p: p[0] < p[1]),
            max_size=n * n,
        )
    )
    return FinitePoset(labels, [(labels[i], labels[j]) for i, j in pairs])


def random_poset(rng: random.Random, n: int) -> FinitePoset:
    labels = list(_LETTERS[:n])
    pairs = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    ]
    return FinitePoset(labels, pairs)


def scan_preorder_opens(up):
    """The literal oracle: every mask that holds the up-mask of each member."""
    return [
        m
        for m in range(1 << len(up))
        if all(up[i] & ~m == 0 for i in iter_bits(m))
    ]


def reference_frames():
    """Fresh frames for the kernel-against-scan tests: each poset with
    n <= 6 with its Birkhoff lattice, then (None, its open frame) for each
    topology with n <= 4."""
    for n in range(7):
        for p in enumerate_posets(n):
            yield p, birkhoff_lattice(p)
    for n in range(5):
        for s in enumerate_topologies(n):
            yield None, open_frame(s)
