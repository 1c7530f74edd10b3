"""`CartpolePlant`: a closed-loop inverted-pendulum control scenario.

The hls4ml-on-cartpole line of work deploys a small quantized MLP that
balances an inverted pendulum from an edge device; this plant rebuilds
that scenario on our stack so the *whole* reproduction — fixed-point
conversion, the graph compiler, fault injection + taint-aware
speculation, the serving farm — runs against a workload where the
model's output changes the next frame.

* **Plant**: the classic discrete-time cartpole (cart position ``x``,
  pole angle ``theta`` and their rates), Euler-integrated at ``tau``
  seconds per digitizer tick, with a seeded Gaussian disturbance force
  every tick.  Leaving the track or dropping the pole past the failure
  angle resets the episode (counted, never hidden).
* **Frames**: the scaled 4-state, tiled twice → 8 monitors over 2 hubs
  (the smallest layout that still exercises hub concentration and
  gives the vote ladder 4 monitor pairs).
* **Controller model**: a hand-crafted 2-dense MLP.  The hidden layer
  computes the PD control signal ``u = k · state`` and its negation
  (ReLU splits the sign); the output layer maps them to per-monitor
  vote probabilities ``sigmoid(±g·u − b)`` so the trip controller's
  ``>0.5`` vote threshold becomes a symmetric deadband ``|u| > b/g``.
  A ``LEFT``/``RIGHT`` trip applies ``∓/± force_mag`` newtons; no trip
  (deadband, abstention, failed publish) applies nothing — bang-bang
  control with hysteresis, entirely inside the paper's
  model→board→controller pipeline.
* **Ground truth**: the float control law on the unquantized state at
  frame time — ``RIGHT`` beyond the deadband, etc. — so trip
  precision/recall measures the quantized pipeline against the ideal
  controller.

All weights and activations fit comfortably in the default
``ac_fixed<16,7>`` (|values| < 64, resolution 2⁻⁹), so the uniform
conversion is accurate and every compile level is bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.beamloss.controller import TripController
from repro.beamloss.hubs import HubNetwork
from repro.plants.base import (
    ControlQuality,
    Plant,
    PlantSession,
    score_against_truth,
    session_rng,
    summarize_records,
)
from repro.soc.board import FRAME_PERIOD_S

__all__ = ["CartpolePlant"]

#: 12° in radians: the classic failure angle, also the angle scale.
THETA_LIMIT = 12 * 2 * math.pi / 360


@dataclass(frozen=True)
class CartpolePlant(Plant):
    """Closed-loop cartpole (see module docstring).

    The physics parameters are the classic benchmark values; the
    control fields shape the hand-crafted MLP
    (:meth:`default_model`) and the ground-truth law.
    """

    # -- physics -------------------------------------------------------
    gravity: float = 9.81
    masscart: float = 1.0
    masspole: float = 0.1
    length: float = 0.5            # half the pole length
    force_mag: float = 10.0
    tau: float = 0.02              # plant seconds per digitizer tick
    x_limit: float = 2.4
    #: Std-dev of the per-tick Gaussian disturbance force (newtons).
    disturbance_std: float = 0.4
    #: Std-dev of the initial / post-reset angle and angular rate.
    init_std: float = 0.05

    # -- controller ----------------------------------------------------
    #: PD gains over the scaled state (x, ẋ, θ, θ̇).
    gains: Tuple[float, float, float, float] = (0.8, 1.6, 12.0, 5.0)
    #: Vote-probability slope and offset: monitor probability is
    #: ``sigmoid(±vote_gain·u − vote_bias)``, so the trip deadband is
    #: ``|u| > vote_bias / vote_gain``.
    vote_gain: float = 2.0
    vote_bias: float = 1.0
    min_votes: int = 2
    probability_threshold: float = 0.5

    # -- stabilisation band --------------------------------------------
    stab_theta: float = 0.06       # rad
    stab_omega: float = 0.35       # rad/s
    stab_frames: int = 25

    name = "cartpole"
    closed_loop = True

    @property
    def machine_names(self) -> Tuple[str, ...]:
        return ("LEFT", "RIGHT")

    @property
    def expected_monitors(self) -> int:
        return 8

    @property
    def deadband(self) -> float:
        """Control-signal magnitude below which no trip fires."""
        return self.vote_bias / self.vote_gain

    @property
    def state_scales(self) -> Tuple[float, float, float, float]:
        """Per-component normalisation of the monitor features."""
        return (self.x_limit, 3.0, THETA_LIMIT, 2.0)

    def hubs(self, n_monitors: int) -> HubNetwork:
        return HubNetwork(n_monitors=n_monitors,
                          n_hubs=min(2, n_monitors))

    def controller(self) -> TripController:
        return TripController(
            machine_names=self.machine_names,
            probability_threshold=self.probability_threshold,
            min_votes=self.min_votes,
        )

    # ------------------------------------------------------------------
    def control_signal(self, state: Sequence[float]) -> float:
        """The float PD law ``u = k · scaled(state)`` (ground truth)."""
        return float(sum(k * s / c for k, s, c
                         in zip(self.gains, state, self.state_scales)))

    def ideal_action(self, state: Sequence[float]) -> Optional[str]:
        """What the ideal (float, deadbanded) controller would do."""
        u = self.control_signal(state)
        if u > self.deadband:
            return "RIGHT"
        if u < -self.deadband:
            return "LEFT"
        return None

    def default_model(self):
        """The hand-crafted vote MLP (float; convert per your config)."""
        from repro.nn.layers.activations import ReLU, Sigmoid
        from repro.nn.layers.dense import Dense
        from repro.nn.layers.input import Input
        from repro.nn.model import Model

        inp = Input((8,), name="cartpole_state")
        hidden = Dense(2, use_bias=False, name="pd_split")
        h = ReLU(name="pd_relu")(hidden(inp))
        votes = Dense(8, name="vote_dense")
        out = Sigmoid(name="vote_sigmoid")(votes(h))
        model = Model(inp, out, name="cartpole_controller")

        # Hidden: h = (relu(u), relu(-u)) — gains on the first state
        # copy, zeros on the tiled second copy.
        k1 = np.zeros((8, 2))
        k1[:4, 0] = np.asarray(self.gains, dtype=np.float64)
        k1[:, 1] = -k1[:, 0]
        hidden.params["kernel"] = k1

        # Output (monitor-major, machines (LEFT, RIGHT)):
        #   z_LEFT  = g·(h1 − h0) − b = −g·u − b
        #   z_RIGHT = g·(h0 − h1) − b = +g·u − b
        g, b = self.vote_gain, self.vote_bias
        k2 = np.zeros((2, 8))
        for m in range(4):
            k2[0, 2 * m] = -g
            k2[1, 2 * m] = +g
            k2[0, 2 * m + 1] = +g
            k2[1, 2 * m + 1] = -g
        votes.params["kernel"] = k2
        votes.params["bias"] = np.full(8, -b, dtype=np.float64)
        return model

    def session(self, seed: Any = 0) -> "_CartpoleSession":
        return _CartpoleSession(self, seed)


class _CartpoleSession(PlantSession):
    """One seeded cartpole episode."""

    def __init__(self, plant: CartpolePlant, seed: Any):
        self.plant = plant
        self._rng = session_rng(seed)
        self._scales = np.asarray(plant.state_scales, dtype=np.float64)
        self.state = np.zeros(4)  # x, x_dot, theta, theta_dot
        self._reset_pole()
        self.failures = 0
        self.truth: List[Optional[str]] = []
        self._theta_hist: List[float] = []
        self._omega_hist: List[float] = []

    def _reset_pole(self) -> None:
        self.state[:] = (0.0, 0.0,
                         self._rng.normal(0.0, self.plant.init_std),
                         self._rng.normal(0.0, self.plant.init_std))

    # ------------------------------------------------------------------
    def next_frame(self) -> np.ndarray:
        # Python floats carry the same float64 values through the float
        # control law as the array's elements would.
        state = self.state.tolist()
        self.truth.append(self.plant.ideal_action(state))
        self._theta_hist.append(state[2])
        self._omega_hist.append(state[3])
        scaled = self.state / self._scales
        return np.concatenate((scaled, scaled))

    def apply(self, action: Optional[str]) -> None:
        p = self.plant
        # One disturbance draw per tick, action or not, so the noise
        # stream is a pure function of (plant, seed, tick index).
        disturbance = self._rng.normal(0.0, p.disturbance_std)
        force = disturbance
        if action == "RIGHT":
            force += p.force_mag
        elif action == "LEFT":
            force -= p.force_mag

        x, x_dot, theta, theta_dot = self.state
        costh, sinth = math.cos(theta), math.sin(theta)
        total_mass = p.masscart + p.masspole
        polemass_length = p.masspole * p.length
        temp = (force + polemass_length * theta_dot ** 2 * sinth) / total_mass
        theta_acc = (p.gravity * sinth - costh * temp) / (
            p.length * (4.0 / 3.0 - p.masspole * costh ** 2 / total_mass))
        x_acc = temp - polemass_length * theta_acc * costh / total_mass
        self.state[:] = (x + p.tau * x_dot,
                         x_dot + p.tau * x_acc,
                         theta + p.tau * theta_dot,
                         theta_dot + p.tau * theta_acc)

        if abs(self.state[2]) > THETA_LIMIT or abs(self.state[0]) > p.x_limit:
            self.failures += 1
            self._reset_pole()

    # ------------------------------------------------------------------
    def _stabilization_frame(self) -> Optional[int]:
        """Index of the tick completing the first in-band streak."""
        p = self.plant
        streak = 0
        for i, (th, om) in enumerate(zip(self._theta_hist,
                                         self._omega_hist)):
            if abs(th) < p.stab_theta and abs(om) < p.stab_omega:
                streak += 1
                if streak >= p.stab_frames:
                    return i
            else:
                streak = 0
        return None

    def quality(self, records: Sequence[Any]) -> ControlQuality:
        period = FRAME_PERIOD_S
        g = summarize_records(records, period)
        n = len(records)
        truth = self.truth[:n]
        if truth and len(truth) == n:
            precision, recall = score_against_truth(
                [r.decision.machine for r in records], truth)
        else:
            precision = recall = math.nan
        thetas = np.asarray(self._theta_hist[:n])
        rms = float(np.sqrt(np.mean(thetas ** 2))) if n else math.nan
        stab_i = self._stabilization_frame()
        return ControlQuality(
            stabilization_time_s=(math.nan if stab_i is None
                                  else (stab_i + 1) * period),
            stabilized=stab_i is not None,
            trip_precision=precision,
            trip_recall=recall,
            rms_state_error=rms,
            **g,
        )
