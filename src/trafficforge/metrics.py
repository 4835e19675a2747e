"""Evaluation metrics: displacement errors, likelihood, validity, diversity.

Displacement errors compare predicted and ground-truth trajectories over a
step horizon. The likelihood score fits, per prediction step, a 2D
Gaussian kernel density over the N sampled positions and evaluates the
ground truth under it. Diversity scores a trajectory by how far it strays
from an idealized straight constant-velocity reference after chord
normalization:

* lateral: W1 distance between the empirical distribution of y values and
  the point mass at y = 0, which reduces to mean(|y|);
* longitudinal: the same W1 form on the second finite difference of x(t),
  i.e. mean(|d2x/dt2|).

The realism check performs PCA on pooled real and simulated trajectories,
fits the same Gaussian KDE on the transformed real set only, and compares
mean log-likelihoods of both sets under that density.
"""

import math
import statistics
from dataclasses import dataclass

import numpy as np

from trafficforge.errors import InsufficientDataError
from trafficforge import road_graph

KDE_COV_REG = 1e-4          # added to every KDE's sample covariance
RESAMPLE_POINTS = 35        # common length for the realism check
PCA_COMPONENTS = 2          # dimensions of the realism check's KDE
# Points per road_graph.within_lanes call in validity_ratio. A call holds
# about a dozen arrays of one float64 or int64 per (point, segment) pair
# at once. A point meets at most 39 segments on the benchmark maps (9 on
# average at the junction), so at 256 points each such array stays under
# 80 KB, below glibc's 128 KB mmap threshold: it comes from the heap and
# goes back to it, with no pages mapped and unmapped per call. Their sum
# sets the heap's high-water mark: on the junction logs validity_ratio
# peaks at 0.49 MB with 256 points (0.27 MB one trajectory at a time) and
# peak RSS rises under 0.1%, while 384 and 512 raised it 0.3% and 0.9%.
_VALIDITY_BLOCK = 256


@dataclass
class Trajectory2D:
    """Points ``dt`` s apart; readers hand in only finite ones, dt > 0."""
    dt: float
    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2 \
                or len(self.points) < 2:
            raise ValueError("trajectory needs >=2 2D points")


@dataclass
class PredictionSet:
    agent_id: int
    ground_truth: Trajectory2D
    samples: list

    def __post_init__(self):
        n = len(self.ground_truth.points)
        if any(len(s.points) != n for s in self.samples):
            raise ValueError("samples must match ground-truth horizon")


@dataclass
class DiversityReport:
    y_mean: float
    y_median: float
    xdd_mean: float
    xdd_median: float
    y_values: np.ndarray
    xdd_values: np.ndarray
    n_degenerate: int

    def to_dict(self):
        return {
            "y_wasserstein": {"mean": self.y_mean, "median": self.y_median},
            "xdd_wasserstein": {"mean": self.xdd_mean,
                                "median": self.xdd_median},
            "n_trajectories": int(len(self.y_values)),
            "n_degenerate": self.n_degenerate,
        }


def _check_horizon(traj, horizon_steps):
    if horizon_steps < 1 or horizon_steps >= len(traj.points):
        raise ValueError(
            f"horizon {horizon_steps} outside 1..{len(traj.points) - 1}")


def ade(pred, gt, horizon_steps):
    """Mean Euclidean displacement over prediction steps 1..horizon."""
    _check_horizon(pred, horizon_steps)
    _check_horizon(gt, horizon_steps)
    d = pred.points[1:horizon_steps + 1] - gt.points[1:horizon_steps + 1]
    return float(np.linalg.norm(d, axis=1).mean())


def fde(pred, gt, horizon_steps):
    """Euclidean displacement at the final horizon step."""
    _check_horizon(pred, horizon_steps)
    _check_horizon(gt, horizon_steps)
    return float(np.linalg.norm(pred.points[horizon_steps]
                                - gt.points[horizon_steps]))


def min_over_samples(pset, metric, horizon_steps):
    """Best-of-N value of the ``metric`` named "ade" or "fde" over the
    prediction samples."""
    fn = {"ade": ade, "fde": fde}[metric]
    return min(fn(s, pset.ground_truth, horizon_steps) for s in pset.samples)


def _logsumexp(a):
    """``log(sum(exp(a)))`` of a finite 1-D float array.

    The same float operations, in the same order, as the real 1-D path
    of SciPy 1.17's ``special.logsumexp``, so the result is the same bit
    for bit: the ``m`` maxima are taken out of the shifted sum
    ``s``, which is then scaled by ``1 / m``, and the direct form
    answers when that result is not finite.
    """
    a_max = a.max()
    mask = a == a_max
    m = np.float64(np.count_nonzero(mask))
    s = np.sum(np.exp(np.where(mask, -np.inf, a) - a_max))
    if s != 0:
        s = s / m
    out = np.log1p(s) + np.log(m) + a_max
    if not np.isfinite(out):
        with np.errstate(over="ignore", divide="ignore"):
            out = np.log(np.sum(np.exp(a)))
    return out


def _gauss_kde_logpdf(samples, queries):
    """Gaussian KDE on (n, d) ``samples``: log densities at (q, d) ``queries``.

    Kernel covariance: the sample covariance plus ``KDE_COV_REG``, which
    keeps it invertible, times Scott's factor squared (Scott 1992).
    """
    n, d = samples.shape
    cov = np.cov(samples.T) if n > 1 else np.zeros((d, d))
    cov = np.atleast_2d(cov) + KDE_COV_REG * np.eye(d)
    kernel_cov = cov * n ** (-2.0 / (d + 4))
    inv = np.linalg.inv(kernel_cov)
    _, logdet = np.linalg.slogdet(kernel_cov)
    norm = 0.5 * d * math.log(2.0 * math.pi)
    out = np.empty(len(queries))
    for i, query in enumerate(queries):
        diff = query - samples
        quad = np.einsum("ij,jk,ik->i", diff, inv, diff)
        out[i] = _logsumexp(-0.5 * quad - 0.5 * logdet - norm) - math.log(n)
    return out


def nll(pset, horizon_steps):
    """Mean negative log density of the ground truth under per-step KDEs."""
    if len(pset.samples) < 2:
        raise InsufficientDataError("likelihood needs at least 2 samples")
    _check_horizon(pset.ground_truth, horizon_steps)
    vals = []
    for step in range(1, horizon_steps + 1):
        pts = np.stack([s.points[step] for s in pset.samples])
        gt = pset.ground_truth.points[step:step + 1]
        vals.append(-float(_gauss_kde_logpdf(pts, gt)[0]))
    return float(np.mean(vals))


def validity_ratio(trajs, graph, margin=0.5,
                   max_snap_distance=road_graph.MAX_SNAP_DISTANCE):
    """Fraction of trajectories whose every point lies on the road.

    Each point must snap to a lane of the RoadGraph ``graph`` within
    ``max_snap_distance`` and lie within half its lane width plus
    ``margin`` (:func:`road_graph.within_lanes`: each point is measured
    against the segments of its cell of the graph's uniform segment
    grid, O(points x nearby segments)). The points of all trajectories
    go to it in consecutive slices of ``_VALIDITY_BLOCK``; every point is
    decided on its own, so the verdicts are those of one call per
    trajectory.
    """
    if not trajs:
        raise ValueError("no trajectories")
    ok = np.concatenate([
        road_graph.within_lanes(graph, points, margin, max_snap_distance)
        for points in _slices((traj.points for traj in trajs),
                              _VALIDITY_BLOCK)])
    starts = np.cumsum([0] + [len(traj.points) for traj in trajs[:-1]])
    return np.count_nonzero(np.logical_and.reduceat(ok, starts)) / len(trajs)


def _slices(arrays, size):
    """The rows of ``arrays``, end to end, in consecutive ``size``-row
    slices, the last one shorter; one slice is copied at a time."""
    pending, room = [], size
    for rows in arrays:
        while len(rows) >= room:
            yield np.concatenate(pending + [rows[:room]])
            rows, pending, room = rows[room:], [], size
        pending.append(rows)
        room -= len(rows)
    if room < size:
        yield np.concatenate(pending)


def normalize_trajectory(traj):
    """Translate the start to the origin and rotate the chord onto +x."""
    pts = traj.points - traj.points[0]
    chord = pts[-1]
    norm = np.linalg.norm(chord)
    if norm < 1e-9:
        raise ValueError("zero net displacement; cannot normalize")
    c, s = chord / norm
    rot = np.array([[c, s], [-s, c]])
    return Trajectory2D(traj.dt, pts @ rot.T)


def y_wasserstein(traj):
    """W1 distance of the normalized y-values to the point mass at zero.

    Against a point mass the transport cost is exactly the mean absolute
    value, so that closed form is used.
    """
    return float(np.abs(traj.points[:, 1]).mean())


def xdd_wasserstein(traj):
    """W1 distance of longitudinal acceleration to the zero reference.

    x(t) is differentiated twice by central differences at the native dt
    (one-sided second differences at the ends).
    """
    x = traj.points[:, 0]
    if len(x) < 3:
        raise ValueError("need at least 3 points")
    dt2 = traj.dt * traj.dt
    xdd = np.empty(len(x))
    xdd[1:-1] = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / dt2
    xdd[0] = (x[2] - 2.0 * x[1] + x[0]) / dt2
    xdd[-1] = (x[-1] - 2.0 * x[-2] + x[-3]) / dt2
    return float(np.abs(xdd).mean())


def diversity_report(trajs):
    """Per-trajectory diversity values aggregated to mean and median."""
    y_vals, xdd_vals = [], []
    degenerate = 0
    for traj in trajs:
        try:
            norm = normalize_trajectory(traj)
        except ValueError:
            degenerate += 1
            continue
        y_vals.append(y_wasserstein(norm))
        xdd_vals.append(xdd_wasserstein(norm))
    if not y_vals:
        raise InsufficientDataError("no non-degenerate trajectories")
    # statistics.median gives np.median's floats for finite values,
    # without the numpy.ma import that np.median makes on first use
    y_arr, xdd_arr = np.asarray(y_vals), np.asarray(xdd_vals)
    return DiversityReport(
        float(y_arr.mean()), statistics.median(y_vals),
        float(xdd_arr.mean()), statistics.median(xdd_vals),
        y_arr, xdd_arr, degenerate)


def resample_trajectory(traj):
    """Linear time-resampling to ``RESAMPLE_POINTS`` points."""
    n = len(traj.points)
    src_t = np.arange(n) * traj.dt
    tgt_t = np.linspace(0.0, src_t[-1], RESAMPLE_POINTS)
    return np.column_stack([np.interp(tgt_t, src_t, traj.points[:, 0]),
                            np.interp(tgt_t, src_t, traj.points[:, 1])])


def pca_kde_realism(real, sim, n_eval=1000, rng_seed=0):
    """Mean log-likelihood of real and simulated sets under a real-data KDE.

    Trajectories are resampled to a common length, flattened, and reduced
    to ``PCA_COMPONENTS`` with a PCA basis fit on the pooled sets. The
    KDE (:func:`_gauss_kde_logpdf`) is fit on the transformed real set
    only. Returns (loglik_real, loglik_sim) in nats.
    """
    if len(real) < PCA_COMPONENTS + 1:
        raise InsufficientDataError(
            f"need at least {PCA_COMPONENTS + 1} real trajectories")
    if not sim:
        raise InsufficientDataError("need at least 1 simulated trajectory")
    real_v = np.stack([resample_trajectory(t).ravel() for t in real])
    sim_v = np.stack([resample_trajectory(t).ravel() for t in sim])

    pooled = np.vstack([real_v, sim_v])
    mean = pooled.mean(axis=0)
    _, _, vt = np.linalg.svd(pooled - mean, full_matrices=False)
    basis = vt[:PCA_COMPONENTS]
    real_p = (real_v - mean) @ basis.T
    sim_p = (sim_v - mean) @ basis.T

    rng = np.random.default_rng(rng_seed)
    idx_r = rng.integers(len(real_p), size=n_eval)
    idx_s = rng.integers(len(sim_p), size=n_eval)
    ll_real = float(np.mean(_gauss_kde_logpdf(real_p, real_p[idx_r])))
    ll_sim = float(np.mean(_gauss_kde_logpdf(real_p, sim_p[idx_s])))
    return ll_real, ll_sim
