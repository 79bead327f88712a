"""Node programs: the paper's local algorithms as message-passing code.

Three programs are provided:

* :class:`KnowledgeFloodingProgram` -- the generic pattern behind every
  local algorithm here: flood startup knowledge for ``r`` rounds so that
  each agent assembles its radius-``r`` view, then apply a purely local rule
  to the view;
* :class:`SafeProgram` -- the safe algorithm (Section 4, eq. 2) with
  horizon 1;
* :class:`LocalAveragingProgram` -- the Theorem 3 averaging algorithm,
  which needs the radius ``2R + 1`` view exactly as stated in Section 5.1
  (each agent recomputes the local LPs of every view it participates in and
  the shrink factor ``β_j``).

The programs are deterministic and compute the same activities as the
centralised implementations in :mod:`repro.core`, which demonstrates
operationally that the algorithms are local: nothing beyond the
constant-radius view is ever used.  The tests check this agent by agent to
within an absolute tolerance (``1e-12`` for the safe algorithm, ``1e-9``
for local averaging), not bit for bit: :class:`LocalAveragingProgram` sums
``x^u_j`` in ``sorted(V^j, key=repr)`` order over local LPs of its own
window instance, while :mod:`repro.core.local_averaging` sums in agent
position order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Set

from ..core.local_averaging import solve_local_lp
from ..core.problem import Agent
from ..core.safe import safe_value
from .knowledge import LocalKnowledge
from .simulator import NodeProgram
from .views import LocalView

__all__ = [
    "KnowledgeFloodingProgram",
    "SafeProgram",
    "LocalAveragingProgram",
]


@dataclass
class _FloodState:
    """Per-agent state of the knowledge-flooding pattern."""

    me: Agent
    known: Dict[Agent, LocalKnowledge]
    new: Set[Agent]


class KnowledgeFloodingProgram(NodeProgram):
    """Gather the radius-``r`` view by flooding, then apply a local rule.

    Subclasses implement :meth:`compute`, which receives the assembled
    :class:`~repro.distributed.views.LocalView` and returns the agent's
    activity.  The flooding is incremental: each round an agent forwards only
    the records it learned in the previous round, so a record originating at
    distance ``ℓ`` reaches an agent exactly in round ``ℓ`` and the total
    per-agent communication is proportional to its ball size -- constant for
    bounded-degree graphs and constant ``r``.
    """

    def __init__(self, radius: int) -> None:
        if radius < 0:
            raise ValueError("the gathering radius must be non-negative")
        self._radius = radius

    @property
    def radius(self) -> int:
        """The gathering radius (number of flooding rounds)."""
        return self._radius

    @property
    def rounds(self) -> int:
        return self._radius

    # -- NodeProgram interface ------------------------------------------------
    def initialise(self, knowledge: LocalKnowledge) -> _FloodState:
        return _FloodState(
            me=knowledge.agent,
            known={knowledge.agent: knowledge},
            new={knowledge.agent},
        )

    def outgoing(self, state: _FloodState, round_index: int) -> Any:
        if not state.new:
            return None
        return {u: state.known[u] for u in state.new}

    def receive(
        self, state: _FloodState, round_index: int, inbox: Dict[Agent, Any]
    ) -> None:
        freshly_learned: Set[Agent] = set()
        for _sender, payload in inbox.items():
            for agent, record in payload.items():
                if agent not in state.known:
                    state.known[agent] = record
                    freshly_learned.add(agent)
        state.new = freshly_learned

    def finalise(self, state: _FloodState) -> float:
        view = LocalView(center=state.me, radius=self._radius, knowledge=state.known)
        return float(self.compute(view))

    # -- to be provided by subclasses ------------------------------------------
    def compute(self, view: LocalView) -> float:
        """The local decision rule applied to the assembled view."""
        raise NotImplementedError


class SafeProgram(KnowledgeFloodingProgram):
    """The safe algorithm as a node program (horizon ``r = 1``).

    One flooding round suffices: for every resource ``i ∈ I_v`` all of
    ``V_i`` lies within distance 1 of ``v``, so after the round the agent
    knows ``|V_i|`` exactly and can output
    ``x_v = min_{i∈I_v} 1/(a_iv |V_i|)``.
    """

    def __init__(self) -> None:
        super().__init__(radius=1)

    def compute(self, view: LocalView) -> float:
        window = view.window_problem()
        return safe_value(window, view.center)


class LocalAveragingProgram(KnowledgeFloodingProgram):
    """The Theorem 3 local averaging algorithm as a node program.

    Parameters
    ----------
    R:
        The local-LP radius; the program gathers the radius ``2R + 1`` view,
        exactly the horizon claimed in Section 5.1.
    """

    def __init__(self, R: int) -> None:
        if R < 1:
            raise ValueError("the local averaging algorithm requires R >= 1")
        super().__init__(radius=2 * R + 1)
        self._R = R

    @property
    def R(self) -> int:
        return self._R

    def compute(self, view: LocalView) -> float:
        window = view.window_problem()
        j = view.center
        R = self._R

        # V^j and the local solutions x^u for every u ∈ V^j (by symmetry
        # these are exactly the views that contain j).
        V_j = view.ball(j, R)
        contribution = 0.0
        for u in sorted(V_j, key=repr):
            V_u = view.ball(u, R)
            x_u = solve_local_lp(window, V_u)
            contribution += x_u.get(j, 0.0)

        # β_j = min_{i ∈ I_j} n_i / N_i with
        #   N_i = |∪_{j' ∈ V_i} V^{j'}| and n_i = min_{j' ∈ V_i} |V^{j'}|.
        resources_j = window.agent_resources(j)
        beta_j = 1.0
        if resources_j:
            ratios = []
            for i in resources_j:
                support = window.resource_support(i)
                union: Set[Agent] = set()
                smallest = None
                for j_prime in support:
                    ball = view.ball(j_prime, R)
                    union |= ball
                    smallest = (
                        len(ball) if smallest is None else min(smallest, len(ball))
                    )
                ratios.append(smallest / len(union))
            beta_j = min(ratios)

        return beta_j * contribution / len(V_j)
