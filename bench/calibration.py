"""Machine-speed calibration for the benchmark's timings.

The host this benchmark was tuned on shares its cores: the same pass of the
same inputs ran anywhere from 1x to 2x its fastest time, within one run and
across runs, in wall time and in process CPU time alike. A fixed kernel that
does the same kind of work as an fbsim trial (small complex NumPy arrays,
fancy indexing, batched LAPACK inverses, SVD and QR, and Python loops) slows
down by nearly the same factor. So the benchmark runs this kernel between the
sweeps of every pass, and scales the time of each sweep to the speed at which
the kernel takes ``REFERENCE_NS``. The kernel does not use fbsim, so a change
to fbsim moves the scaled timings as it moves the raw ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

# About the kernel time on an unloaded core of the machine the benchmark was
# tuned on (2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11, NumPy 2.4.6). It
# sets only the scale of the reported figures.
REFERENCE_NS = 30_000_000

_REPS = 150


def kernel() -> float:
    """A fixed mix of the hot paths of the three workloads, without fbsim."""
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(_REPS):
        # ZF selection: Gram sub-blocks of candidate sets, batched inverses, SVD
        h = (rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))) / np.sqrt(2.0)
        u = h / np.linalg.norm(h, axis=1, keepdims=True)
        gram = u @ u.conj().T
        idx = np.array([[0, 1, k] for k in range(2, 30)])
        sub = gram[idx[:, :, None], idx[:, None, :]]
        inv_diag = np.diagonal(np.linalg.inv(sub), axis1=-2, axis2=-1).real
        s = np.linalg.svd(u[:4], compute_uv=False)
        # Haar orthonormal sets: QR of a stack
        q, _ = np.linalg.qr(h[:16].reshape(4, 4, 4))
        # explicit codebook scan: fresh random codewords, best match
        codebook = rng.standard_normal((512, 8)).view(np.complex128)
        best = int(np.argmax(np.abs(codebook @ u[0].conj())))
        # per-row scalar quantization in Python
        for v in inv_diag[:, 0].tolist():
            acc += math.floor(10.0 * math.log10(v + 1.0)) + math.atan2(v, 1.0 + v)
        acc += float(s[0]) + abs(complex(q[0, 0, 0])) + best
    return acc


class Calibration:
    """Runs the kernel on each call and keeps when each run started and ended."""

    def __init__(self):
        self.runs: list[tuple[int, int]] = []

    def __call__(self) -> None:
        t0 = time.perf_counter_ns()
        kernel()
        self.runs.append((t0, time.perf_counter_ns()))

    def slowdown(self, i: int = -1) -> float:
        """Run i's kernel time over the reference: 2.0 on a machine half as fast."""
        start, end = self.runs[i]
        return (end - start) / REFERENCE_NS

    def work_ns(self) -> tuple[int, float]:
        """(wall ns, ns at reference speed) of the work between the kernel runs.

        Each stretch between two consecutive runs is scaled by the mean
        slowdown of those two runs.
        """
        wall = scaled = 0.0
        for i in range(len(self.runs) - 1):
            ns = self.runs[i + 1][0] - self.runs[i][1]
            wall += ns
            scaled += ns / ((self.slowdown(i) + self.slowdown(i + 1)) / 2.0)
        return int(wall), scaled
