import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemi.graph import TAGS, AdjacencyPattern, knn_graph_symmetric
from gemi.numerics import SeededRng, _tag_to_int, finite_difference_gradient, l2_normalize_rows, matmul, spmm
from graph_oracles import dense_normalized_adjacency, graph_from_pairs


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(5).normal(size=10)
        b = SeededRng(5).normal(size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(SeededRng(5).normal(size=10), SeededRng(6).normal(size=10))

    def test_substreams_are_independent_of_consumption(self):
        # drawing from the parent must not shift a named child stream
        r1 = SeededRng(9)
        r1.normal(size=100)
        child1 = r1.substream("augment").normal(size=5)
        child2 = SeededRng(9).substream("augment").normal(size=5)
        assert np.array_equal(child1, child2)

    def test_distinct_tags_distinct_streams(self):
        r = SeededRng(3)
        a = r.substream("alpha").normal(size=8)
        b = r.substream("beta").normal(size=8)
        assert not np.array_equal(a, b)

    def test_nested_substreams(self):
        a = SeededRng(1).substream("x").substream("y").random(4)
        b = SeededRng(1).substream("x").substream("y").random(4)
        assert np.array_equal(a, b)
        # a substream is the plain numpy Generator of its (seed, tag path)
        seq = np.random.SeedSequence(entropy=1, spawn_key=(_tag_to_int("x"), _tag_to_int("y")))
        assert np.array_equal(a, np.random.Generator(np.random.PCG64(seq)).random(4))


class TestSparseAdjacency:
    @staticmethod
    def _square_graph():
        # a 4-clique (degree 3, so every entry among 0..3 is exactly 1/4) and node 4 isolated
        pairs = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        return graph_from_pairs(5, pairs, [TAGS.index("knn")] * 6)

    def _square(self):
        return AdjacencyPattern(self._square_graph()).operator()

    def test_dense_round_trip(self):
        expect = np.zeros((5, 5))
        expect[:4, :4] = 0.25
        expect[4, 4] = 1.0
        assert np.array_equal(self._square().toarray(), expect)

    def test_nnz_counts_stored_entries(self):
        # both directions of six edges plus five self-loops
        assert self._square().nnz == 17

    @pytest.mark.parametrize(
        "case", ["square", "knn-seed0", "knn-seed1", "knn-seed2", "no-edges"]
    )
    def test_spmm_equals_dense_product(self, case):
        # oracle: the dense normalized adjacency built from the edge list,
        # not from the CSR under test; spmm must match it closely and
        # repeat itself bit for bit
        if case == "square":
            g = self._square_graph()
            x = np.arange(20, dtype=np.float64).reshape(5, 4)
        elif case == "no-edges":
            g = graph_from_pairs(7, [], [])
            x = SeededRng(3).normal(size=(7, 4))
        else:
            rng = SeededRng(int(case[-1]))
            g = knn_graph_symmetric(rng.normal(size=(20, 6)), 4)
            x = rng.normal(size=(20, 5))
        adj = AdjacencyPattern(g).operator()
        got = spmm(adj, x)
        np.testing.assert_allclose(got, dense_normalized_adjacency(g) @ x, rtol=0, atol=1e-12)
        assert np.array_equal(got, spmm(adj, x))

    def test_spmm_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            spmm(self._square(), np.ones((4, 2)))

    def test_spmm_takes_a_rectangular_matrix(self):
        from scipy.sparse import csr_array

        members = csr_array(np.array([[1.0, 0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 1.0]]))
        x = np.arange(15, dtype=np.float64).reshape(5, 3)
        assert np.array_equal(spmm(members, x), [[6.0, 8.0, 10.0], [21.0, 23.0, 25.0]])

    def test_spmm_rejects_inner_dimension_mismatch(self):
        from scipy.sparse import csr_array

        # 2 x 5 times 2 x 3: the row counts agree, the inner dimensions do not
        with pytest.raises(ValueError, match=r"\(2, 5\) @ \(2, 3\)"):
            spmm(csr_array(np.ones((2, 5))), np.ones((2, 3)))


def test_matmul_rejects_shape_mismatch(rng):
    with pytest.raises(ValueError):
        matmul(rng.normal(size=(3, 4)), rng.normal(size=(5, 2)))


def test_cli_import_leaves_scipy_unloaded(gemi_env, tmp_path):
    # the CSR builders import scipy.sparse lazily so CLI startup stays cheap;
    # the benchmark's setup_s probe times this import and load_config
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": {"kind": "gae"}}')
    code = (
        "import sys, gemi.cli, gemi.graph, gemi.losses, gemi.models, gemi.recommend, gemi.train\n"
        "from gemi.config import load_config\n"
        f"load_config({str(cfg)!r})\n"
        "print('scipy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=gemi_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_process_pool_unloaded(gemi_env):
    # only `gemi sweep --jobs N` with N > 1 needs a process pool
    code = "import sys, gemi.cli; print(sorted({m.split('.')[0] for m in sys.modules} & {'concurrent', 'multiprocessing'}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=gemi_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_l2_normalize_rows_unit_norm(rng):
    x = rng.normal(size=(6, 4))
    norms = np.linalg.norm(l2_normalize_rows(x), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)


def test_l2_normalize_zero_row_stays_zero():
    x = np.zeros((2, 3))
    x[1] = [3.0, 0.0, 4.0]
    out = l2_normalize_rows(x)
    assert np.array_equal(out[0], np.zeros(3))
    np.testing.assert_allclose(out[1], [0.6, 0.0, 0.8])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=6))
def test_rng_reproducible_property(seed, n):
    assert np.array_equal(SeededRng(seed).random(n), SeededRng(seed).random(n))


def test_finite_difference_gradient_quadratic():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    x = np.array([0.3, -1.2])
    x0 = x.copy()
    fd = finite_difference_gradient(lambda: 0.5 * float(x @ A @ x), x)
    np.testing.assert_allclose(fd, A @ x0, atol=1e-7)


def test_finite_difference_gradient_rejects_nonfinite():
    x = np.array([[0.3, -1.2], [2.5, 1e-7]])
    x0 = x.copy()
    with pytest.raises(FloatingPointError):
        finite_difference_gradient(lambda: float("nan"), x)
    assert np.array_equal(x.view(np.int64), x0.view(np.int64))  # every entry put back bit for bit
