"""Single-qubit state tomography from Pauli-basis counts.

Counts are simulated by binomial sampling of the exact +1-outcome
probabilities.  Reconstruction is linear inversion of the empirical
Bloch vector, with one physicality projection: a vector that lands
outside the Bloch ball is rescaled onto its surface.  Error bars come
from a parametric bootstrap that resamples counts from the empirical
frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .qmath import ContractError, DensityMatrix

__all__ = [
    "BASES",
    "PauliCounts",
    "ReconstructionReport",
    "expectations",
    "simulate_counts",
    "reconstruct",
    "reconstruct_from_expectations",
]

BASES = ("X", "Y", "Z")
BOOTSTRAP_BLOCK = 1 << 12  # resamples drawn and reconstructed as one array

_PAULIS = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class PauliCounts:
    """Plus/minus tallies for each Pauli basis at a common shot count."""

    shots_per_basis: int
    counts: dict[str, tuple[int, int]]

    def __post_init__(self):
        shots = int(self.shots_per_basis)
        if shots < 1:
            raise ContractError(f"shots_per_basis must be >= 1, got {shots}")
        if set(self.counts) != set(BASES):
            raise ContractError(
                f"counts must cover exactly the bases {BASES}, got "
                f"{sorted(self.counts)}"
            )
        clean = {}
        for basis in BASES:
            plus, minus = (int(v) for v in self.counts[basis])
            if plus < 0 or minus < 0 or plus + minus != shots:
                raise ContractError(
                    f"basis {basis}: counts ({plus}, {minus}) do not sum to {shots}"
                )
            clean[basis] = (plus, minus)
        object.__setattr__(self, "shots_per_basis", shots)
        object.__setattr__(self, "counts", clean)

    def empirical_expectations(self) -> dict[str, float]:
        return {
            basis: (plus - minus) / self.shots_per_basis
            for basis, (plus, minus) in self.counts.items()
        }


@dataclass(frozen=True, eq=False)
class ReconstructionReport:
    """Reconstructed state with its fidelity point estimate and spread."""

    rho: DensityMatrix
    fidelity_vs_ideal: float
    fidelity_std: float
    shots_per_basis: int

    def __post_init__(self):
        if not 0.0 <= self.fidelity_vs_ideal <= 1.0:
            raise ContractError(
                f"fidelity must lie in [0, 1], got {self.fidelity_vs_ideal!r}"
            )
        if self.fidelity_std < 0.0:
            raise ContractError(f"fidelity_std must be >= 0, got {self.fidelity_std!r}")
        if self.shots_per_basis < 0:
            raise ContractError(
                f"shots_per_basis must be >= 0, got {self.shots_per_basis}"
            )


def _check_single_qubit(rho: DensityMatrix) -> None:
    if rho.dimension != 2:
        raise ContractError(f"tomography handles single qubits, got dim {rho.dimension}")


def _expectations(matrices: np.ndarray) -> np.ndarray:
    """The (X, Y, Z) expectations of each 2x2 matrix of a stack, along a last axis."""
    return np.stack(
        [np.trace(matrices @ _PAULIS[basis], axis1=-2, axis2=-1).real for basis in BASES],
        axis=-1,
    )


def expectations(rho: DensityMatrix) -> dict[str, float]:
    """Exact Pauli expectation values of a single-qubit state."""
    _check_single_qubit(rho)
    return dict(zip(BASES, _expectations(rho.matrix[None])[0].tolist()))


def _draw_plus(matrices: np.ndarray, shots: int, rngs) -> np.ndarray:
    """Each state's (X, Y, Z) plus counts, row t drawn from ``rngs[t]``.

    The +1-outcome probability in basis B is (1 + <B>)/2, clipped to [0, 1].
    """
    p_plus = np.clip((1.0 + _expectations(matrices)) / 2.0, 0.0, 1.0)
    return np.stack([rng.binomial(shots, p) for rng, p in zip(rngs, p_plus)])


def simulate_counts(
    rho: DensityMatrix, shots: int, rng: np.random.Generator
) -> PauliCounts:
    """Binomial-sample plus/minus counts in each Pauli basis.

    The +1-outcome probability in basis B is (1 + <B>)/2.
    """
    _check_single_qubit(rho)
    if shots < 1:
        raise ContractError(f"shots must be >= 1, got {shots}")
    plus = _draw_plus(rho.matrix[None], shots, [rng])[0].tolist()
    return PauliCounts(shots, {basis: (n, shots - n) for basis, n in zip(BASES, plus)})


def _bloch_matrices(r: np.ndarray) -> np.ndarray:
    """(I + r·σ)/2 for each Bloch vector along the last axis of ``r``.

    A vector outside the Bloch ball is first rescaled onto its surface,
    by its norm as a (1×3)@(3×1) dot product, as ``np.linalg.norm`` takes it.
    """
    norm = np.sqrt(r[..., None, :] @ r[..., :, None])[..., 0]
    r = r / np.where(norm > 1.0, norm, 1.0)
    x, y, z = (r[..., i, None, None] for i in range(3))
    return (_I2 + x * _PAULIS["X"] + y * _PAULIS["Y"] + z * _PAULIS["Z"]) / 2.0


def _reconstruct_plus(plus: np.ndarray, shots: int) -> np.ndarray:
    """Linear inversion of each row of (X, Y, Z) plus counts at ``shots`` per basis."""
    return _bloch_matrices((plus - (shots - plus)) / shots)


def reconstruct_from_expectations(rx: float, ry: float, rz: float) -> DensityMatrix:
    """Linear inversion from (possibly noisy) Pauli expectations."""
    for name, v in (("rx", rx), ("ry", ry), ("rz", rz)):
        if not np.isfinite(v):
            raise ContractError(f"{name} must be finite, got {v!r}")
    return DensityMatrix(2, _bloch_matrices(np.array([rx, ry, rz], dtype=float)))


def reconstruct(counts: PauliCounts) -> DensityMatrix:
    """Linear inversion of the empirical Bloch vector.

    Always returns a valid state: statistical overshoot past the Bloch
    ball is rescaled back onto the unit sphere.
    """
    plus = np.array([counts.counts[basis][0] for basis in BASES])
    return DensityMatrix(2, _reconstruct_plus(plus, counts.shots_per_basis))


def _bootstrap(
    plus: np.ndarray, shots: int, ideals: np.ndarray, resamples: int, rngs
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's parametric bootstrap of the reconstructed fidelity: the
    means and (population) standard deviations over ``resamples``
    fidelities against the pure target ``ideals[t]``, row t resampling
    its (X, Y, Z) plus counts from ``rngs[t]``.

    Up to ``BOOTSTRAP_BLOCK`` resamples over all rows are drawn and
    reconstructed as one array, with the draws and roundings of one at a
    time.  They need no check: ``binomial`` keeps each count in 0..shots,
    and ``_bloch_matrices`` keeps each state physical.
    """
    if resamples < 1:
        raise ContractError(f"resamples must be >= 1, got {resamples}")
    p_hat = plus / shots
    fids = np.empty((len(plus), resamples), dtype=float)
    step = max(1, BOOTSTRAP_BLOCK // len(plus))
    for start in range(0, resamples, step):
        size = (min(step, resamples - start), 3)
        redrawn = np.stack([rng.binomial(shots, p, size=size) for rng, p in zip(rngs, p_hat)])
        rho = _reconstruct_plus(redrawn, shots)
        fids[:, start:start + size[0]] = qmath.fidelities(rho, ideals[:, None])
    return np.mean(fids, axis=1), np.std(fids, axis=1)
