"""DRAS configuration, including the exact Table III architectures.

The network dimensions follow §IV-D: the convolution layer has one
neuron per input row, the two hidden layers shrink toward the output,
and the output has ``W`` neurons (PG, one per window slot) or a single
neuron (DQL, the Q-value of one job).  ``NetworkDims.param_count``
reproduces the paper's trainable-parameter arithmetic:

    3 (conv) + rows*h1 + h1*h2 + h2*out + out

which matches Table III for Theta-PG (21,890,053), Theta-DQL
(21,449,004) and Cori-PG (161,960,053); the Cori-DQL cell of Table III
is internally inconsistent (DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class NetworkDims:
    """Dimensions of one five-layer DRAS network."""

    rows: int
    hidden1: int
    hidden2: int
    outputs: int

    def __post_init__(self) -> None:
        for name in ("rows", "hidden1", "hidden2", "outputs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def param_count(self) -> int:
        """Trainable parameters (Table III bottom row)."""
        return (
            3
            + self.rows * self.hidden1
            + self.hidden1 * self.hidden2
            + self.hidden2 * self.outputs
            + self.outputs
        )


@dataclass(frozen=True)
class DRASConfig:
    """Everything needed to build and train a DRAS agent.

    Defaults follow the paper: window ``W = 50``, learning rate 0.001
    (Adam), parameter update every 10 scheduling instances, ε from 1.0
    decaying at 0.995, reward Eq. (1) with ``w1 = w2 = w3 = 1/3`` for
    capability systems.
    """

    num_nodes: int
    window: int = 50
    hidden1: int = 4000
    hidden2: int = 1000
    objective: str = "capability"
    reward_kwargs: dict = field(default_factory=dict)
    learning_rate: float = 0.001
    update_every: int = 10
    epsilon_start: float = 1.0
    epsilon_decay: float = 0.995
    epsilon_min: float = 0.02
    gamma: float = 1.0
    #: entropy-bonus coefficient for the PG agents; keeps the softmax
    #: from saturating into a deterministic policy mid-training.
    #: Without it the capability reward's wait term drives the policy
    #: into an exact FCFS clone (always pick the oldest window slot).
    entropy_coef: float = 0.05
    time_scale: float = 86400.0
    grad_clip: float | None = 10.0
    #: ablation switch: when False, level-2 uses EASY's first-fit rule
    #: instead of the learned network (isolates the paper's claim that
    #: learned backfilling beats first-fit)
    learned_backfill: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.objective not in ("capability", "capacity"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if not 0 < self.learning_rate:
            raise ValueError("learning_rate must be positive")
        if self.update_every <= 0:
            raise ValueError("update_every must be positive")
        if not 0.0 <= self.epsilon_min <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 <= epsilon_min <= epsilon_start <= 1")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must be in (0, 1]")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")

    # -- network dimensions (Table III) ------------------------------------
    @property
    def pg_dims(self) -> NetworkDims:
        """PG network dimensions: ``rows = 2W + N``, ``outputs = W``."""
        return NetworkDims(
            rows=2 * self.window + self.num_nodes,
            hidden1=self.hidden1,
            hidden2=self.hidden2,
            outputs=self.window,
        )

    @property
    def dql_dims(self) -> NetworkDims:
        """DQL network dimensions: ``rows = 2 + N``, one Q output."""
        return NetworkDims(
            rows=2 + self.num_nodes,
            hidden1=self.hidden1,
            hidden2=self.hidden2,
            outputs=1,
        )

    # -- presets -------------------------------------------------------------
    @classmethod
    def theta(cls, **overrides) -> "DRASConfig":
        """Full-scale Theta configuration (§IV-D)."""
        cfg = cls(
            num_nodes=4360,
            window=50,
            hidden1=4000,
            hidden2=1000,
            objective="capability",
            time_scale=24 * 3600.0,
        )
        return replace(cfg, **overrides) if overrides else cfg

    @classmethod
    def cori(cls, **overrides) -> "DRASConfig":
        """Full-scale Cori configuration (§IV-D)."""
        cfg = cls(
            num_nodes=12076,
            window=50,
            hidden1=10000,
            hidden2=4000,
            objective="capacity",
            time_scale=7 * 24 * 3600.0,
        )
        return replace(cfg, **overrides) if overrides else cfg

    @classmethod
    def scaled(
        cls,
        num_nodes: int,
        objective: str = "capability",
        window: int = 20,
        time_scale: float = 24 * 3600.0,
        **overrides,
    ) -> "DRASConfig":
        """A proportionally shrunk configuration for fast experiments.

        Hidden sizes track the input size with the same ~0.9x / ~0.22x
        ratios the paper uses for Theta.
        """
        rows = 2 * window + num_nodes
        hidden1 = max(32, int(round(rows * 0.9)))
        hidden2 = max(16, int(round(rows * 0.22)))
        cfg = cls(
            num_nodes=num_nodes,
            window=window,
            hidden1=hidden1,
            hidden2=hidden2,
            objective=objective,
            time_scale=time_scale,
        )
        return replace(cfg, **overrides) if overrides else cfg


def table3_configs() -> dict[str, NetworkDims]:
    """The four Table III network configurations."""
    theta = DRASConfig.theta()
    cori = DRASConfig.cori()
    return {
        "theta-pg": theta.pg_dims,
        "theta-dql": theta.dql_dims,
        "cori-pg": cori.pg_dims,
        "cori-dql": cori.dql_dims,
    }
