"""Unit tests for the network container, builder and serialization."""

import numpy as np
import pytest

from repro.nn.layers import Dense, LeakyReLU
from repro.nn.network import Network, build_dras_network, count_parameters
from repro.nn.serialize import savez


class TestNetwork:
    def test_requires_layers(self):
        with pytest.raises(ValueError):
            Network([])

    def test_forward_chains_layers(self, rng):
        net = Network([Dense(3, 2, rng=rng), LeakyReLU(), Dense(2, 1, rng=rng)])
        y = net.forward(rng.normal(size=(4, 3)))
        assert y.shape == (4, 1)

    def test_call_alias(self, rng):
        net = Network([Dense(3, 2, rng=rng)])
        x = rng.normal(size=(1, 3))
        assert np.allclose(net(x), net.forward(x))

    def test_backward_writes_the_latest_gradient(self, rng):
        """``grad`` is the most recent backward's, not a running sum."""
        net = build_dras_network(6, 5, 4, 3, rng=rng)
        x = rng.normal(size=(4, 6, 2))
        net.forward(x)
        net.backward(np.ones((4, 3)))
        first = [p.dense_grad().copy() for p in net.parameters()]
        assert all(np.any(g != 0) for g in first)
        net.forward(x)
        net.backward(np.ones((4, 3)))
        for p, g in zip(net.parameters(), first):
            assert np.array_equal(p.dense_grad(), g)
        net.forward(x)
        net.backward(np.zeros((4, 3)))
        assert all(np.all(p.dense_grad() == 0) for p in net.parameters())


class TestBuildDRASNetwork:
    def test_layer_structure(self, rng):
        net = build_dras_network(10, 8, 4, 3, rng=rng)
        names = [type(layer).__name__ for layer in net.layers]
        assert names == [
            "Conv1x2", "Dense", "LeakyReLU", "Dense", "LeakyReLU", "Dense",
        ]

    def test_forward_shapes(self, rng):
        net = build_dras_network(10, 8, 4, 3, rng=rng)
        y = net.forward(rng.normal(size=(5, 10, 2)))
        assert y.shape == (5, 3)

    @pytest.mark.parametrize(
        "rows,h1,h2,out",
        [(10, 8, 4, 3), (50, 40, 10, 1), (100, 90, 22, 20), (7, 5, 3, 2)],
    )
    def test_param_count_matches_formula(self, rng, rows, h1, h2, out):
        """The instantiated count equals the Table III arithmetic."""
        net = build_dras_network(rows, h1, h2, out, rng=rng)
        expected = 3 + rows * h1 + h1 * h2 + h2 * out + out
        assert count_parameters(net) == expected

    def test_hidden_layers_have_no_bias(self, rng):
        net = build_dras_network(10, 8, 4, 3, rng=rng)
        fc1, fc2, out = net.layers[1], net.layers[3], net.layers[5]
        assert fc1.bias is None
        assert fc2.bias is None
        assert out.bias is not None


class TestStateDict:
    def test_roundtrip(self, rng):
        net = build_dras_network(6, 5, 4, 3, rng=rng)
        state = net.state_dict()
        other = build_dras_network(6, 5, 4, 3, rng=np.random.default_rng(999))
        x = rng.normal(size=(2, 6, 2))
        assert not np.allclose(net.forward(x), other.forward(x))
        other.load_state_dict(state)
        assert np.allclose(net.forward(x), other.forward(x))

    def test_mismatched_keys_rejected(self, rng):
        net = build_dras_network(6, 5, 4, 3, rng=rng)
        with pytest.raises(ValueError, match="mismatch"):
            net.load_state_dict({"bogus": np.ones(3)})

    def test_mismatched_shape_rejected(self, rng):
        net = build_dras_network(6, 5, 4, 3, rng=rng)
        state = net.state_dict()
        key = next(iter(state))
        state[key] = np.ones((1, 1))
        with pytest.raises(ValueError, match="shape"):
            net.load_state_dict(state)

    def test_load_copies_values(self, rng):
        net = build_dras_network(6, 5, 4, 3, rng=rng)
        state = {k: v.copy() for k, v in net.state_dict().items()}
        net.load_state_dict(state)
        state[next(iter(state))] += 1.0
        # mutating the source dict must not leak into the network
        assert not np.allclose(
            net.state_dict()[next(iter(state))], state[next(iter(state))]
        )

    def test_snapshot_lends_the_live_values_read_only(self, rng):
        net = build_dras_network(6, 5, 4, 3, rng=rng)
        state = net.state_dict()
        assert all(a is p.value for a, p in zip(state.values(),
                                                net.parameters()))
        for a in state.values():
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a += 1.0

    def test_load_of_a_snapshot_installs_a_writeable_copy(self, rng):
        net = build_dras_network(6, 5, 4, 3, rng=rng)
        state = net.state_dict()
        versions = [p.version for p in net.parameters()]
        net.load_state_dict(state)
        for (key, lent), p, version in zip(state.items(), net.parameters(),
                                            versions):
            assert p.value is not lent and np.array_equal(p.value, lent)
            assert p.value.flags.writeable and p.value.flags.c_contiguous
            assert p.version == version + 1
        assert not any(a.flags.writeable for a in state.values())


class TestSerialize:
    def test_savez_matches_numpy_member_for_member(self, tmp_path):
        """Empty, 0-d text, Fortran-ordered, strided and integer arrays:
        the same ``.npy`` members ``np.savez`` writes; object arrays
        refused."""
        import zipfile

        arrays = {"empty": np.zeros((0, 3), np.float32),
                  "meta": np.array('{"k": 1}'),
                  "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
                  "strided": np.arange(12.0).reshape(3, 4)[:, ::2],
                  "t": np.array([7], np.int64)}
        savez(tmp_path / "ours.npz", arrays)
        np.savez(tmp_path / "numpy.npz", **arrays)

        def members(path):
            with zipfile.ZipFile(path) as archive:
                return {n: archive.read(n) for n in archive.namelist()}

        assert members(tmp_path / "ours.npz") == members(tmp_path / "numpy.npz")
        with pytest.raises(TypeError, match="obj"):
            savez(tmp_path / "x.npz", {"obj": np.array([None])})


class TestPrecision:
    """Precision is decided once, by ``Network``; everything else follows."""

    def twins(self, seed=3):
        rng32, rng64 = np.random.default_rng(seed), np.random.default_rng(seed)
        return (build_dras_network(6, 5, 4, 3, rng=rng32), rng32,
                build_dras_network(6, 5, 4, 3, rng=rng64, dtype=np.float64),
                rng64)

    def test_default_is_the_papers_float32(self, rng):
        net = build_dras_network(6, 5, 4, 3, rng=rng)
        assert net.dtype == np.float32
        assert all(p.grad is None for p in net.parameters())
        net.forward(np.ones((1, 6, 2)))
        net.backward(np.ones((1, 3)))
        for p in net.parameters():
            assert p.value.dtype == p.dense_grad().dtype == np.float32
        assert Network([Dense(3, 2, rng=rng)]).dtype == np.float32

    def test_float32_network_is_the_rounded_float64_twin(self):
        """Same draws, one rounding apart, generator left in the same place."""
        narrow, rng32, wide, rng64 = self.twins()
        assert rng32.bit_generator.state == rng64.bit_generator.state
        wide.forward(np.ones((1, 6, 2)))
        wide.backward(np.ones((1, 3)))
        for a, b in zip(narrow.parameters(), wide.parameters()):
            assert b.value.dtype == b.dense_grad().dtype == np.float64
            assert np.array_equal(a.value, b.value.astype(np.float32))

    def test_boundary_casts_and_layers_keep_the_dtype(self, rng):
        net = build_dras_network(6, 5, 4, 3, rng=rng)
        x = rng.normal(size=(2, 6, 2))          # float64, as the encoder's
        seen = x.copy()
        out = net.forward(x)
        grad_in = net.backward(np.ones((2, 3)))  # float64, as the losses'
        assert out.dtype == grad_in.dtype == np.float32
        assert np.array_equal(x, seen) and x.dtype == np.float64
        for layer in net.layers:
            held = {attr: v for attr, v in vars(layer).items()
                    if isinstance(v, np.ndarray)}
            # the cached activations, and no buffer of a backward's own
            assert set(held) <= {"_x", "_factor"}
            assert {v.dtype for v in held.values()} <= {np.dtype(np.float32)}

    def test_matching_input_is_not_copied(self, rng):
        net = build_dras_network(6, 5, 4, 3, rng=rng)
        x = rng.normal(size=(2, 6, 2)).astype(np.float32)
        net.forward(x)
        assert net.layers[0]._x is x

    def test_shared_forward_casts_both_pieces(self, rng):
        """float64 in (the encoder's), float32 out; only the sums are wide."""
        from repro.core.state import NodeGroups

        net = build_dras_network(2 + 48, 5, 4, 1, rng=rng)
        shared = NodeGroups(rng.normal(size=(3, 2)), (np.arange(4, 36),),
                            np.array([40]))
        out = net.forward(rng.normal(size=(3, 2, 2)), shared=shared)
        assert out.dtype == np.float32
        sums = net.layers[1]._sums
        assert len(sums) == 2   # of the 48 shared rows, and of the group's 32
        assert {s.dtype for _, s in sums.values()} == {np.dtype(np.float64)}

    def test_state_dict_follows_and_loading_rounds(self, tmp_path):
        narrow, _, wide, _ = self.twins()
        assert {v.dtype for v in narrow.state_dict().values()} \
            == {np.dtype(np.float32)}
        wide.parameters()[2].value += 1e-3      # no longer the init twin
        narrow.load_state_dict(wide.state_dict())
        narrow.forward(np.ones((1, 6, 2)))
        narrow.backward(np.ones((1, 3)))
        for a, b in zip(narrow.parameters(), wide.parameters()):
            assert a.value.dtype == a.dense_grad().dtype == np.float32
            assert np.array_equal(a.value, b.value.astype(np.float32))
        # through a file: the .npz holds the saver's dtype
        for net in (wide, narrow):
            savez(tmp_path / f"{net.dtype}.npz",
                  {k: p.value for k, p in net.named_parameters().items()})
        other = build_dras_network(6, 5, 4, 3)
        with np.load(tmp_path / "float64.npz") as data:
            other.load_state_dict({k: data[k] for k in data.files})
        assert all(np.array_equal(a.value, b.value)
                   for a, b in zip(other.parameters(), narrow.parameters()))
        with np.load(tmp_path / "float32.npz") as data:
            assert {data[k].dtype for k in data.files} == {np.dtype(np.float32)}

    def test_optimizer_state_follows(self, rng):
        from repro.nn.optim import Adam

        for dtype in (np.float32, np.float64):
            net = build_dras_network(6, 5, 4, 3, rng=rng, dtype=dtype)
            net.forward(rng.normal(size=(2, 6, 2)))
            net.backward(np.ones((2, 3)))
            opt = Adam(net.parameters())
            opt.step()
            assert {a.dtype for a in [*opt._m, *opt._v, *opt._scratch]} \
                == {np.dtype(dtype)}
            net.backward(np.ones((2, 3)))   # a sanitized step drops grads
            opt.step()                      # the moments exist: a second step
            assert {p.value.dtype for p in net.parameters()} == {np.dtype(dtype)}
            assert {a.dtype for a in [*opt._m, *opt._v]} == {np.dtype(dtype)}

    def test_float64_is_named_only_where_something_needs_it(self):
        """``losses`` (a [B, W] head), ``layers`` (a group sum adds
        thousands of weight rows) and ``optim`` (a factored gradient's
        norm, from a [B, B] Gram form).

        Anywhere else under ``repro/nn`` a hard-coded width would be a
        second place that decides precision.
        """
        import pathlib

        nn_dir = pathlib.Path(__file__).parent.parent / "src/repro/nn"
        naming = {path.name for path in nn_dir.glob("*.py")
                  if "float64" in path.read_text(encoding="utf-8")}
        assert naming == {"layers.py", "losses.py", "optim.py"}

    def test_gradient_reset_and_backward_scratch_are_gone(self):
        """Gradients are written: nothing resets them, nothing stages them."""
        import pathlib

        src = pathlib.Path(__file__).parent.parent / "src/repro"
        for path in sorted(src.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert "zero_grad" not in text, path
            assert "_gw_scratch" not in text, path
