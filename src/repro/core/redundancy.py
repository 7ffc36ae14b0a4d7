"""Redundancy and fail-operational behaviour (Section 3.3).

"The fail-safe state of an autonomous vehicle is not necessarily a safe
shutdown ... the dynamic platform needs to support instantiating
applications multiple times.  It might be necessary to install multiple
ECUs running the dynamic platform and synchronized applications across
these ECUs."

:class:`RedundancyManager` deploys hot-standby replica sets across
nodes, keeps replica state synchronised, detects node failure via
heartbeats, and promotes a standby on failure.  The promotion latency —
bounded by the heartbeat period plus promotion work — is benchmark C6's
metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import PlatformError
from ..middleware.registry import ServiceOffer
from ..sim import Simulator
from .application import AppInstance, AppState
from .platform import DynamicPlatform

#: Work to promote a hot standby to primary (rebind services, arm control).
PROMOTION_LATENCY = 0.002


@dataclass
class FailoverEvent:
    """One recorded failover."""

    app: str
    failed_node: str
    new_primary_node: str
    failure_time: float
    detection_time: float
    promoted_time: float

    @property
    def interruption(self) -> float:
        """Time the function had no serving primary."""
        return self.promoted_time - self.failure_time


class ReplicaSet:
    """One application replicated across several nodes (hot standby)."""

    def __init__(
        self,
        manager: "RedundancyManager",
        app_name: str,
        instances: List[AppInstance],
        service_id: Optional[int],
    ) -> None:
        self.manager = manager
        self.app_name = app_name
        self.instances = instances
        self.service_id = service_id
        self.primary_index = 0
        self.failovers: List[FailoverEvent] = []
        self.exhausted = False

    @property
    def primary(self) -> AppInstance:
        return self.instances[self.primary_index]

    @property
    def standbys(self) -> List[AppInstance]:
        return [
            inst
            for i, inst in enumerate(self.instances)
            if i != self.primary_index and inst.state is AppState.RUNNING
        ]

    def sync_state(self) -> None:
        """Replicate the primary's state to all standbys (periodic)."""
        snapshot = self.primary.snapshot_state()
        for standby in self.standbys:
            standby.adopt_state(snapshot)

    def check_and_failover(self, now: float, failure_time: float) -> bool:
        """If the primary's node has failed, promote the best standby.

        Returns ``True`` if a failover happened.
        """
        primary = self.primary
        node = self.manager.platform.node(primary.node_name)
        if not node.failed and primary.state is AppState.RUNNING:
            return False
        candidates = [
            (i, inst)
            for i, inst in enumerate(self.instances)
            if i != self.primary_index
            and inst.state is AppState.RUNNING
            and not self.manager.platform.node(inst.node_name).failed
        ]
        if not candidates:
            self.exhausted = True
            return False
        index, new_primary = candidates[0]
        old_node = primary.node_name
        self.primary_index = index
        sim = self.manager.sim
        promoted_at = now + PROMOTION_LATENCY
        if self.service_id is not None:
            sim.schedule(PROMOTION_LATENCY, self._reoffer, new_primary)
        self.failovers.append(
            FailoverEvent(
                app=self.app_name,
                failed_node=old_node,
                new_primary_node=new_primary.node_name,
                failure_time=failure_time,
                detection_time=now,
                promoted_time=promoted_at,
            )
        )
        sim.trace(
            "redundancy.failover",
            app=self.app_name,
            from_node=old_node,
            to_node=new_primary.node_name,
            interruption=promoted_at - failure_time,
        )
        return True

    def _reoffer(self, new_primary: AppInstance) -> None:
        registry = self.manager.platform.registry
        registry.offer(
            ServiceOffer(
                service_id=self.service_id,
                instance_id=1,
                ecu=new_primary.node_name,
                provider_app=self.app_name,
            )
        )


def _sync_cadence(heartbeat_period: float, sync_period: float) -> int:
    """Heartbeat ticks per state sync: ``floor(sync / heartbeat)``, >= 1.

    The quotient of two decimal periods can land a few ulps below an
    integer (0.3 / 0.1 is 2.9999999999999996); such a quotient counts as
    that integer instead of flooring one tick short.  A genuinely
    fractional ratio still floors.
    """
    ratio = sync_period / heartbeat_period
    nearest = round(ratio)
    if math.isclose(ratio, nearest, rel_tol=1e-9):
        return max(1, nearest)
    return max(1, math.floor(ratio))


class RedundancyManager:
    """Deploys and supervises replica sets on a platform."""

    def __init__(
        self,
        platform: DynamicPlatform,
        *,
        heartbeat_period: float = 0.005,
        sync_period: float = 0.05,
    ) -> None:
        self.platform = platform
        self.sim: Simulator = platform.sim
        self.heartbeat_period = heartbeat_period
        self.sync_period = sync_period
        #: heartbeat ticks per state sync, fixed at construction
        self._sync_every = _sync_cadence(heartbeat_period, sync_period)
        self.replica_sets: Dict[str, ReplicaSet] = {}
        self._last_known_failure: Dict[str, float] = {}
        self._supervising = False

    def deploy(
        self,
        app_name: str,
        node_names: List[str],
        *,
        service_id: Optional[int] = None,
        startup_latency: float = 0.0,
    ) -> ReplicaSet:
        """Start one instance of ``app_name`` per node (first = primary).

        The app's image must already be installed on every node.
        """
        if len(node_names) < 1:
            raise PlatformError("need at least one node")
        if app_name in self.replica_sets:
            raise PlatformError(f"{app_name} is already replicated")
        instances = []
        for node_name in node_names:
            instances.append(
                self.platform.start_app(
                    app_name,
                    node_name,
                    instance_id=1,
                    startup_latency=startup_latency,
                )
            )
        replica_set = ReplicaSet(self, app_name, instances, service_id)
        if service_id is not None:
            self.platform.registry.offer(
                ServiceOffer(
                    service_id=service_id,
                    instance_id=1,
                    ecu=node_names[0],
                    provider_app=app_name,
                )
            )
        self.replica_sets[app_name] = replica_set
        self._ensure_supervision()
        return replica_set

    def _ensure_supervision(self) -> None:
        if self._supervising:
            return
        self._supervising = True
        # callback style (self-rescheduling bound method) rather than a
        # generator process: suspended generator frames cannot be deep-
        # copied, and supervision must survive sim.snapshot()/fork()
        self.sim.post(self.heartbeat_period, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        now = self.sim.now
        nodes = self.platform.nodes
        for replica_set in self.replica_sets.values():
            # the healthy case, tested inline: check_and_failover would
            # return False for an up node with a RUNNING primary
            primary = replica_set.instances[replica_set.primary_index]
            node = nodes[primary.node_name]
            if node.failed or primary.state is not AppState.RUNNING:
                failure_time = node.state.failure_time
                replica_set.check_and_failover(
                    now, now if failure_time is None else failure_time
                )
        # periodic state sync on the sync cadence
        if round(now / self.heartbeat_period) % self._sync_every == 0:
            for replica_set in self.replica_sets.values():
                if not nodes[replica_set.primary.node_name].failed:
                    replica_set.sync_state()
        # the float post() computes, without its frame and sign test (the
        # first tick went through post, which rejects a negative period)
        sim = self.sim
        sim.queue.push(
            sim.now + self.heartbeat_period, self._heartbeat_tick, ()
        ).pooled = True

    def all_failovers(self) -> List[FailoverEvent]:
        events = []
        for replica_set in self.replica_sets.values():
            events.extend(replica_set.failovers)
        return sorted(events, key=lambda e: e.detection_time)
