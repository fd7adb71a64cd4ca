"""Reference values for every workload, computed independently of apsgd.

This is a plain-numpy restatement of the method: projected SGD with iterate
averaging, the plug-in sandwich covariance, the specification test, and the
documented Monte Carlo seeding and draws.  It shares no code with the package,
so a fault in the package's arithmetic cannot hide in its own reference.  All
replications of a cell advance together as ``(R, p)`` arrays; a CSV stream is
``R = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, chdtri, expit, ndtr, ndtri

#: Learning-rate defaults of the CLI and of the experiment configs.
GAMMA = 1.0
RHO = 0.505

#: Observations drawn per replication at a time, as the package documents.
DRAW_BLOCK = 2048

#: A replication whose statistic lies within this relative distance of its
#: decision threshold may be decided either way by a last-digit difference.
AMBIGUOUS = 1e-6

#: The Monte Carlo designs: family, theta*, the coordinate shifted by r, the
#: constraint row (right-hand side 0) and the response noise.
PRESETS = {
    "linear": ("linear", (1.5, -3.0, 2.0, 1.0), 3, (0.0, 1.0, 1.0, 1.0), 3.0),
    "logistic": ("logistic", (1.0, -2.0, -2.0, 1.5), 2, (0.0, 1.0, -1.0, 0.0), 3.0),
}


def affine_projection(B, b) -> tuple[np.ndarray, np.ndarray, int]:
    """``P`` onto the kernel of full-row-rank ``B``, feasible point ``c``, rank ``d``."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    p = B.shape[1]
    if B.shape[0] == 0:
        return np.eye(p), np.zeros(p), p
    gram_inv = np.linalg.inv(B @ B.T)
    return np.eye(p) - B.T @ gram_inv @ B, B.T @ gram_inv @ np.asarray(b, float), p - B.shape[0]


def truncated_pinv(a: np.ndarray, rank: int) -> np.ndarray:
    """Pseudoinverse of symmetric ``(..., p, p)`` matrices from their top ``rank`` eigenpairs."""
    vals, vecs = np.linalg.eigh(0.5 * (a + np.swapaxes(a, -1, -2)))
    vals, vecs = vals[..., -rank:], vecs[..., -rank:]
    return np.einsum("...ik,...k,...jk->...ij", vecs, 1.0 / vals, vecs)


class Streams:
    """``R`` projected averaged-SGD streams with their moment averages."""

    def __init__(self, kind: str, P: np.ndarray, c: np.ndarray, R: int):
        self.kind, self.P, self.c = kind, P, c
        self.theta = np.tile(c, (R, 1))
        self.theta_bar = self.theta.copy()
        p = len(c)
        self.G = np.zeros((R, p, p))
        self.S = np.zeros((R, p, p))
        self.t = 0

    def _gradient(self, theta, y, x):
        margin = np.einsum("rj,rj->r", x, theta)
        if self.kind == "linear":
            weight = margin - y
        else:
            weight = -y * expit(-y * margin)
        return weight[:, None] * x

    def _hessian(self, theta, y, x):
        outer = x[:, :, None] * x[:, None, :]
        if self.kind == "linear":
            return outer
        s = expit(-y * np.einsum("rj,rj->r", x, theta))
        return (s * (1.0 - s))[:, None, None] * outer

    def step(self, y: np.ndarray, x: np.ndarray) -> None:
        """One observation per replication: ``y`` is ``(R,)``, ``x`` is ``(R, p)``."""
        self.t += 1
        t = self.t
        v = self.theta - GAMMA * t ** -RHO * self._gradient(self.theta, y, x)
        self.theta = self.c + (v - self.c) @ self.P.T
        w = 1.0 / t
        self.theta_bar = (1.0 - w) * self.theta_bar + w * self.theta
        self.G = (1.0 - w) * self.G + w * self._hessian(self.theta_bar, y, x)
        g = self._gradient(self.theta_bar, y, x)
        self.S = (1.0 - w) * self.S + w * g[:, :, None] * g[:, None, :]

    def covariance(self, d: int) -> np.ndarray:
        """Plug-in sandwich ``pinv_d(P G P) S pinv_d(P G P)`` per replication."""
        inv = truncated_pinv(self.P @ self.G @ self.P, d)
        return inv @ self.S @ inv


def paired_kappa(con: Streams, uncon: Streams, df: int) -> np.ndarray:
    """The specification statistic of each replication's pair of streams."""
    g_inv = np.linalg.inv(uncon.G)
    anti = np.eye(con.P.shape[0]) - con.P
    weight = anti @ (g_inv @ uncon.S @ g_inv) @ anti
    diff = con.theta_bar - uncon.theta_bar
    w_inv = truncated_pinv(weight, df)
    return np.maximum(con.t * np.einsum("ri,rij,rj->r", diff, w_inv, diff), 0.0)


# -- CSV commands ----------------------------------------------------------------


@dataclass(frozen=True)
class EstimateReference:
    estimate: np.ndarray
    std_error: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    p_value: np.ndarray


@dataclass(frozen=True)
class SpecTestReference:
    kappa: float
    df: int
    p_value: float
    reject: bool
    ambiguous: bool  # kappa is too close to the threshold to insist on a decision


def _stream(data: np.ndarray, *streams: Streams) -> None:
    y, x = data[:, 0], data[:, 1:]
    for i in range(len(data)):
        for s in streams:
            s.step(y[i : i + 1], x[i : i + 1])


def estimate(data: np.ndarray, kind: str, alpha: float = 0.05) -> EstimateReference:
    """``apsgd estimate --model kind`` without a constraint."""
    p = data.shape[1] - 1
    s = Streams(kind, np.eye(p), np.zeros(p), 1)
    _stream(data, s)
    est = s.theta_bar[0]
    se = np.sqrt(np.maximum(np.diag(s.covariance(p)[0]) / s.t, 0.0))
    z = -ndtri(alpha / 2.0)
    return EstimateReference(est, se, est - z * se, est + z * se, 2.0 * ndtr(-np.abs(est) / se))


def spec_test(
    data: np.ndarray, kind: str, B, b, standardize: bool, alpha: float = 0.05
) -> SpecTestReference:
    """``apsgd spec-test --model kind [--standardize]`` under ``B theta = b``."""
    data = data.copy()
    if standardize:
        x = data[:, 1:]
        data[:, 1:] = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
    P, c, d = affine_projection(B, b)
    p = len(c)
    con = Streams(kind, P, c, 1)
    uncon = Streams(kind, np.eye(p), c, 1)
    _stream(data, con, uncon)
    df = p - d
    kappa = float(paired_kappa(con, uncon, df)[0])
    threshold = chdtri(df, alpha)
    return SpecTestReference(
        kappa, df, float(chdtrc(df, kappa)), bool(kappa > threshold),
        abs(kappa - threshold) <= AMBIGUOUS * threshold,
    )


# -- Monte Carlo tables --------------------------------------------------------------


@dataclass(frozen=True)
class RowReference:
    """One expected row of a ``simulate`` CSV; ``slack`` is the allowed |value error|."""

    key: tuple[str, str, int, float, str, str]  # mode, dgp, T, r, coordinate, metric
    value: float
    slack: float


def _draw(kind: str, theta: np.ndarray, noise_sd: float, rng, n: int) -> np.ndarray:
    """``n`` observations ``(y, x)`` from open-interval uniforms by inverse CDF."""
    k = len(theta)
    u = (rng.integers(0, 1 << 53, size=(n, k + 1)) + 0.5) / float(1 << 53)
    x = ndtri(u[:, :k])
    lin = x @ theta
    if kind == "linear":
        y = lin + noise_sd * ndtri(u[:, k])
    else:
        y = np.where(u[:, k] < expit(lin), 1.0, -1.0)
    return np.column_stack([y, x])


def _cell(kind, theta, noise_sd, streams, T, R, base_seed, cell) -> None:
    rngs = [
        np.random.Generator(np.random.PCG64(np.random.SeedSequence((base_seed, cell, k))))
        for k in range(R)
    ]
    t = 0
    while t < T:
        n = min(DRAW_BLOCK, T - t)
        block = np.stack([_draw(kind, theta, noise_sd, rng, n) for rng in rngs], axis=1)
        for i in range(n):
            for s in streams:
                s.step(block[i, :, 0], block[i, :, 1:])
        t += n


def _rate(mode, dgp, T, r, coordinate, metric, hits, ambiguous, R) -> RowReference:
    return RowReference(
        (mode, dgp, T, r, coordinate, metric), float(hits.mean()), float(ambiguous.sum()) / R
    )


def simulate(config: dict) -> list[RowReference]:
    """Expected rows of ``apsgd simulate`` for a size_power or coverage config."""
    kind, theta_base, shift, row, noise_sd = PRESETS[config["preset"]]
    P, c, d = affine_projection([row], [0.0])
    p = len(theta_base)
    R, alpha, mode = config["replications"], config["alpha"], config["mode"]
    out = []
    cell = 0
    for T in config["sample_sizes"]:
        for r in config["r_grid"] if mode == "size_power" else (0.0,):
            theta = np.array(theta_base)
            theta[shift] += r
            con = Streams(kind, P, c, R)
            if mode == "size_power":
                uncon = Streams(kind, np.eye(p), c, R)
                _cell(kind, theta, noise_sd, (con, uncon), T, R, config["base_seed"], cell)
                kappa = paired_kappa(con, uncon, p - d)
                threshold = chdtri(p - d, alpha)
                out.append(
                    _rate(
                        mode, config["preset"], T, r, "", "rejection_rate",
                        kappa > threshold,
                        np.abs(kappa - threshold) <= AMBIGUOUS * threshold, R,
                    )
                )
            else:
                _cell(kind, theta, noise_sd, (con,), T, R, config["base_seed"], cell)
                cov = con.covariance(d)
                half = -ndtri(alpha / 2.0) * np.sqrt(
                    np.maximum(np.diagonal(cov, axis1=1, axis2=2), 0.0) / T
                )
                err = np.abs(con.theta_bar - theta)
                near = np.abs(err - half) <= AMBIGUOUS * half
                for j in range(p):
                    out.append(
                        _rate(
                            mode, config["preset"], T, 0.0, f"theta{j + 1}", "coverage",
                            err[:, j] <= half[:, j], near[:, j], R,
                        )
                    )
            cell += 1
    return out
