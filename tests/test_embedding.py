"""Hardware chain embeddings: space-filling, backtracking, and device caches."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctagsched.embedding
from ctagsched.embedding import (
    EmbeddingBudgetExceeded,
    canonical,
    device_embedding,
    find_line_embedding,
    hilbert_embedding,
    multi_embeddings,
)
from ctagsched.graphs import (
    Architecture,
    grid,
    ibm20,
    ibm27,
    linear,
    make_architecture,
)
from reference_models import ref_find_line_embedding


def is_chain(order, arch) -> bool:
    return all(arch.coupled(a, b) for a, b in zip(order, order[1:]))


def star4() -> Architecture:
    # K_{1,3}: three pendants around a hub, no Hamiltonian path
    return Architecture(4, frozenset({(0, 1), (0, 2), (0, 3)}), "star4")


class TestCanonical:
    def test_canonical_is_direction_free(self):
        assert canonical((3, 1, 2)) == canonical((2, 1, 3)) == (2, 1, 3)


class TestHilbert:
    @pytest.mark.parametrize(
        "rows,cols", [(2, 2), (2, 3), (3, 3), (4, 4), (5, 7), (6, 6), (8, 10)]
    )
    def test_full_coverage_unit_steps(self, rows, cols):
        emb = hilbert_embedding(rows, cols)
        arch = grid(rows, cols)
        assert sorted(emb) == list(range(rows * cols))
        assert is_chain(emb, arch)

    def test_2x2(self):
        assert hilbert_embedding(2, 2) == (0, 2, 3, 1)

    def test_locality_beats_row_major(self):
        # consecutive window of the curve stays in a compact patch; spot-check
        # that the first 4 cells of a 6x6 curve fit inside a 2x2 box
        order = hilbert_embedding(6, 6)
        rs = [i // 6 for i in order[:4]]
        cs = [i % 6 for i in order[:4]]
        assert max(rs) - min(rs) <= 1 and max(cs) - min(cs) <= 1

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            hilbert_embedding(1, 8)
        with pytest.raises(ValueError):
            hilbert_embedding(2, 1)


class TestFindLineEmbedding:
    def test_linear_is_the_identity_chain(self):
        emb = find_line_embedding(linear(6))
        assert canonical(emb) == (0, 1, 2, 3, 4, 5)

    def test_ibm20_full_path(self):
        arch = ibm20()
        emb = find_line_embedding(arch)
        assert len(emb) == 20
        assert sorted(emb) == list(range(20))
        assert is_chain(emb, arch)

    def test_star_has_no_path(self):
        assert find_line_embedding(star4()) is None

    def test_ibm27_full_path_is_impossible(self):
        # six degree-1 qubits; a path has at most two endpoints
        assert find_line_embedding(ibm27()) is None

    def test_partial_length(self):
        arch = ibm27()
        emb = find_line_embedding(arch, length=21)
        assert emb is not None and len(emb) == 21
        assert is_chain(emb, arch)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            find_line_embedding(linear(4), length=5)
        with pytest.raises(ValueError):
            find_line_embedding(linear(4), length=0)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(EmbeddingBudgetExceeded):
            find_line_embedding(ibm27(), length=21, budget=3)

    def test_grid_path(self):
        arch = grid(3, 4)
        emb = find_line_embedding(arch)
        assert emb is not None and len(emb) == 12
        assert is_chain(emb, arch)

    def test_chain_longer_than_the_recursion_limit(self):
        # one stack frame per chain site would overflow at about 1,000
        arch = grid(33, 33)
        emb = find_line_embedding(arch, length=1050)
        assert len(emb) == 1050 and arch.is_chain(emb)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_recursive_search(self, data):
        # same chain, same None, and the same budget count on small devices
        q = data.draw(st.integers(2, 12))
        couplings = {(data.draw(st.integers(0, v - 1)), v) for v in range(1, q)}
        extra = [(a, b) for a in range(q) for b in range(a + 1, q)]
        couplings |= set(data.draw(st.lists(st.sampled_from(extra), max_size=q)))
        arch = Architecture(q, frozenset(couplings))
        seed = data.draw(st.integers(0, 50))
        length = data.draw(st.none() | st.integers(1, q))
        budget = data.draw(st.sampled_from([3, 10, 40, 10**6]))
        results = []
        for search in (find_line_embedding, ref_find_line_embedding):
            try:
                results.append(search(arch, seed, length, budget))
            except EmbeddingBudgetExceeded:
                results.append("budget")
        assert results[0] == results[1]


class TestMultiEmbeddings:
    def test_counts(self):
        assert len(multi_embeddings(make_architecture("grid:3x4"), 2)) == 2
        assert len(multi_embeddings(linear(5), 3)) == 1  # one chain up to reversal
        assert len(multi_embeddings(make_architecture("grid:2x2"), 4)) >= 2

    def test_all_valid_and_distinct(self):
        arch = grid(3, 3)
        embs = multi_embeddings(arch, 3)
        keys = {canonical(e) for e in embs}
        assert len(keys) == len(embs)
        for e in embs:
            assert is_chain(e, arch)

    def test_partial_lengths(self):
        embs = multi_embeddings(grid(3, 3), 2, length=5)
        assert all(len(e) == 5 for e in embs)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            multi_embeddings(linear(4), 0)

    def test_first_exhausted_budget_ends_the_search(self, monkeypatch):
        # an attempt that runs out of budget proves nothing, and the next
        # seed would only spend one more budget: the search stops there
        calls = []

        def exhausted(arch, seed=0, length=None, budget=10**6):
            calls.append(seed)
            raise EmbeddingBudgetExceeded(f"budget {budget} exhausted")

        monkeypatch.setattr(ctagsched.embedding, "find_line_embedding", exhausted)
        assert multi_embeddings(grid(3, 3), 2) == []
        assert calls == [0]

    def test_chains_found_before_an_exhausted_budget_are_kept(self, monkeypatch):
        real = ctagsched.embedding.find_line_embedding

        def second_exhausts(arch, seed=0, length=None, budget=10**6):
            if seed == 1:
                raise EmbeddingBudgetExceeded(f"budget {budget} exhausted")
            return real(arch, seed, length, budget)

        monkeypatch.setattr(ctagsched.embedding, "find_line_embedding", second_exhausts)
        assert multi_embeddings(grid(3, 3), 2) == [real(grid(3, 3), 0)]


class TestDeviceEmbeddings:
    @pytest.mark.parametrize("name", ["ibm20", "ibm27"])
    def test_cached_chain_has_distinct_sites(self, name):
        emb = device_embedding(name)
        assert type(emb) is tuple and len(set(emb)) == len(emb)

    def test_ibm20_cache_is_valid(self):
        emb = device_embedding("ibm20")
        assert len(emb) == 20
        assert is_chain(emb, ibm20())

    def test_ibm27_cache_is_valid(self):
        emb = device_embedding("ibm27")
        assert len(emb) == 21
        assert is_chain(emb, ibm27())

    def test_ibm27_cache_is_longest(self):
        # 22 is provably unreachable: a fresh search at length 22 exhausts
        arch = ibm27()
        assert find_line_embedding(arch, length=22, budget=10**7) is None
