"""Numerical execution of a partitioned MLP block (test oracle).

Runs fc1 -> act -> fc2 on the numpy virtual cluster: the single-operator
execution extended to a chain of operators with *different* partition
specs.  It measures the actual inter-operator redistribution traffic (the
elements each device must fetch because its fc1 output does not cover its
fc2 input — paper Eq. 9), which the tests check against the cost model's
prediction, element for element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.core.device import all_devices
from repro.core.dims import Dim, Phase
from repro.core.spec import PartitionSpec
from repro.runtime.linear_exec import LinearShape, PartitionedLinear, _axis_slice


@dataclass(frozen=True)
class MlpShape:
    """Global sizes of the MLP block: ``hidden -> ffn -> hidden``."""

    batch: int
    seq: int
    hidden: int
    ffn: int

    def fc1_shape(self) -> LinearShape:
        return LinearShape(b=self.batch, m=self.seq, n=self.hidden, k=self.ffn)

    def fc2_shape(self) -> LinearShape:
        return LinearShape(b=self.batch, m=self.seq, n=self.ffn, k=self.hidden)


def _held_ranges(
    spec: PartitionSpec, sizes: Mapping[Dim, int], dims, phase: Phase, t: int
) -> Dict[int, Tuple[Tuple[int, int], ...]]:
    """Per-device rectangular index ranges of a tensor's held block."""
    counts = spec.slice_counts
    out = {}
    for device in all_devices(spec.n_bits):
        dsi = spec.evaluator.dsi(device, phase, t)
        ranges = []
        for dim in dims:
            sl = _axis_slice(sizes[dim], counts[dim], dsi[dim])
            ranges.append((sl.start, sl.stop))
        out[device.rank] = tuple(ranges)
    return out


def measured_redistribution(
    producer_spec: PartitionSpec,
    consumer_spec: PartitionSpec,
    sizes: Mapping[Dim, int],
    producer_dims=(Dim.B, Dim.M, Dim.K),
    consumer_dims=(Dim.B, Dim.M, Dim.N),
    dim_map: Mapping[Dim, Dim] = None,
) -> int:
    """Ground-truth Eq. 9 traffic: elements each device must fetch.

    ``dim_map`` aligns consumer dims to producer dims (fc2's ``N`` is
    fc1's ``K``); both specs must live on the same cluster.
    """
    if producer_spec.n_bits != consumer_spec.n_bits:
        raise ValueError("specs must target the same cluster")
    dim_map = dim_map or {Dim.B: Dim.B, Dim.M: Dim.M, Dim.N: Dim.K}
    producer_sizes = {d: sizes[d] for d in producer_dims}
    consumer_sizes = {d: producer_sizes[dim_map[d]] for d in consumer_dims}
    held = _held_ranges(
        producer_spec, producer_sizes, producer_dims, Phase.FORWARD,
        producer_spec.total_steps - 1,
    )
    needed = _held_ranges(
        consumer_spec, consumer_sizes, consumer_dims, Phase.FORWARD, 0
    )
    total_missing = 0
    for rank, need in needed.items():
        have = held[rank]
        need_volume = 1
        overlap_volume = 1
        for (n_lo, n_hi), (h_lo, h_hi) in zip(
            need, tuple(have[producer_dims.index(dim_map[d])] for d in consumer_dims)
        ):
            need_volume *= n_hi - n_lo
            overlap_volume *= max(0, min(n_hi, h_hi) - max(n_lo, h_lo))
        total_missing += need_volume - overlap_volume
    return total_missing


class PartitionedMlp:
    """Runs fc1 -> relu -> fc2 forward numerically under per-op specs.

    Each linear executes on its own virtual cluster; between operators the
    global tensor is re-scattered per the consumer's layout, and the
    measured redistribution traffic is recorded per edge.
    """

    def __init__(
        self,
        fc1_spec: PartitionSpec,
        fc2_spec: PartitionSpec,
        shape: MlpShape,
    ) -> None:
        self.shape = shape
        self.fc1 = PartitionedLinear(fc1_spec, shape.fc1_shape())
        self.fc2 = PartitionedLinear(fc2_spec, shape.fc2_shape())

    def run_forward(
        self,
        inputs: np.ndarray,
        w1: np.ndarray,
        w2: np.ndarray,
        grad_output: np.ndarray,
    ) -> Dict[str, object]:
        """One training pass of the block; returns results plus traffic.

        The activation is element-wise (ReLU); its backward multiplies the
        incoming gradient by the saved mask, all locally.
        """
        zero_grad = np.zeros((self.shape.batch, self.shape.seq, self.shape.ffn))
        first = self.fc1.run_iteration(inputs, w1, zero_grad, lr=0.0)
        hidden = first["O"]
        activated = np.maximum(hidden, 0.0)
        mask = (hidden > 0).astype(hidden.dtype)
        second = self.fc2.run_iteration(activated, w2, grad_output, lr=0.0)
        # Backward through the activation and fc1.
        grad_hidden = second["dI"] * mask
        first_grad = self.fc1.run_iteration(inputs, w1, grad_hidden, lr=0.0)
        sizes = {
            Dim.B: self.shape.batch,
            Dim.M: self.shape.seq,
            Dim.K: self.shape.ffn,
            Dim.N: self.shape.ffn,
        }
        traffic = measured_redistribution(
            self.fc1.spec, self.fc2.spec, sizes
        )
        return {
            "O": second["O"],
            "dI": first_grad["dI"],
            "dW1": first_grad["dW"],
            "dW2": second["dW"],
            "fc1_to_fc2_traffic": traffic,
        }


def reference_mlp_forward(
    inputs: np.ndarray,
    w1: np.ndarray,
    w2: np.ndarray,
    grad_output: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Single-device reference of the MLP block training pass."""
    hidden = inputs @ w1
    activated = np.maximum(hidden, 0.0)
    mask = (hidden > 0).astype(hidden.dtype)
    output = activated @ w2
    grad_activated = grad_output @ w2.T
    grad_hidden = grad_activated * mask
    grad_input = grad_hidden @ w1.T
    flat = lambda a: a.reshape(-1, a.shape[-1])
    return {
        "O": output,
        "dI": grad_input,
        "dW1": flat(inputs).T @ flat(grad_hidden),
        "dW2": flat(activated).T @ flat(grad_output),
    }
