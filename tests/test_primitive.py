"""The spatial-temporal primitive: Eq. 4-6, Table 1 and Features 1-3."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracles import is_ring_pattern  # noqa: E402  (ring-shape oracle)
from repro.core import analysis
from repro.core.dims import Dim, LINEAR_SIGNATURES, Phase
from repro.core.device import all_devices, square_coordinates
from repro.core.primitive import (
    SquareCoord,
    check_collective_free,
    check_no_replication,
    check_phase_alignment,
    gradient_dsi,
    primitive_dsi,
    pure_primitive_spec,
    table1_sender,
    verify_features,
)


@pytest.mark.parametrize("k", [1, 2])
class TestFeatures:
    def test_collective_free(self, k):
        assert check_collective_free(pure_primitive_spec(k))

    def test_no_replication(self, k):
        assert check_no_replication(pure_primitive_spec(k))

    def test_phase_alignment(self, k):
        assert check_phase_alignment(pure_primitive_spec(k))

    def test_verify_features_bundle(self, k):
        assert verify_features(k) == (True, True, True)


@pytest.mark.parametrize("k", [1, 2])
class TestDsiClosedForm:
    def test_matches_evaluator(self, k):
        """Eq. 4-6 closed forms agree with the Alg. 1 walker."""
        spec = pure_primitive_spec(k)
        side = 1 << k
        for device in all_devices(2 * k):
            row, col = square_coordinates(device, 0, k)
            for phase in Phase:
                for t in range(side):
                    closed = primitive_dsi(phase, row, col, t, k)
                    walked = spec.evaluator.dsi(device, phase, t)
                    for dim in (Dim.M, Dim.N, Dim.K):
                        assert closed[dim] == walked[dim]

    def test_gradient_delta_flips_only_at_last_step(self, k):
        side = 1 << k
        for t in range(side - 1):
            a = gradient_dsi(0, 0, t, k)
            assert a[Dim.N] == (0 + 0 - 1) % side
        last = gradient_dsi(0, 0, side - 1, k)
        assert last[Dim.N] == 0 % side


@pytest.mark.parametrize("k", [1, 2])
class TestTable1:
    def _tensor_dims(self, name):
        return {
            "I": (Dim.B, Dim.M, Dim.N),
            "W": (Dim.N, Dim.K),
            "dO": (Dim.B, Dim.M, Dim.K),
            "dW": (Dim.N, Dim.K),
        }[name]

    def test_numeric_transfers_match_table1(self, k):
        """Every derived ring transfer agrees with the analytic senders."""
        spec = pure_primitive_spec(k)
        side = 1 << k
        for phase, signature in LINEAR_SIGNATURES.items():
            for tr in analysis.ring_transfers(spec, signature):
                dst_rc = square_coordinates(tr.dst, 0, k)
                src_rc = square_coordinates(tr.src, 0, k)
                # Output (dW) transfers overlap step t+1 per Table 1.
                step = tr.step + 1 if tr.tensor == signature.output.name else tr.step
                sender = table1_sender(
                    phase, tr.tensor, step, SquareCoord(*dst_rc), k
                )
                assert sender is not None, (phase, tr.tensor, step)
                assert (sender.row, sender.col) == src_rc

    def test_table1_covers_every_numeric_transfer_count(self, k):
        """Conversely, each Table 1 entry occurs in the derived schedule."""
        spec = pure_primitive_spec(k)
        side = 1 << k
        n_dev = side * side
        fwd = analysis.ring_transfers(spec, LINEAR_SIGNATURES[Phase.FORWARD])
        # I and W both move at steps 0..side-2: 2 tensors * (side-1) * n_dev.
        assert len(fwd) == 2 * (side - 1) * n_dev

    def test_backward_epilogue_matches_table1_last_row(self, k):
        """W at Backward's final step comes from (r, c+1)."""
        spec = pure_primitive_spec(k)
        side = 1 << k
        w_role = LINEAR_SIGNATURES[Phase.FORWARD].inputs[1]
        transfers = analysis.epilogue_transfers(
            spec, w_role, Phase.BACKWARD, Phase.FORWARD
        )
        assert len(transfers) == side * side
        for tr in transfers:
            r, c = square_coordinates(tr.dst, 0, k)
            sr, sc = square_coordinates(tr.src, 0, k)
            assert (sr, sc) == (r, (c + 1) % side)

    def test_no_transfer_outside_schedule(self, k):
        coord = SquareCoord(0, 0)
        side = 1 << k
        # Forward last step communicates nothing.
        assert table1_sender(Phase.FORWARD, "I", side - 1, coord, k) is None
        assert table1_sender(Phase.FORWARD, "W", side - 1, coord, k) is None
        # dO never moves in Forward.
        assert table1_sender(Phase.FORWARD, "dO", 0, coord, k) is None

    def test_step_bounds_checked(self, k):
        with pytest.raises(ValueError):
            table1_sender(Phase.FORWARD, "I", 1 << k, SquareCoord(0, 0), k)


class TestRingShape:
    @pytest.mark.parametrize("k", [1, 2])
    def test_transfers_form_rings(self, k):
        """Each tensor's same-step transfers form disjoint rings."""
        spec = pure_primitive_spec(k)
        for phase, signature in LINEAR_SIGNATURES.items():
            by_key = {}
            for tr in analysis.ring_transfers(spec, signature):
                by_key.setdefault((tr.tensor, tr.step), []).append(tr)
            for key, transfers in by_key.items():
                assert is_ring_pattern(transfers), key
