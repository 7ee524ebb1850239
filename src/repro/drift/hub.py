"""Per-model monitor fan-out for a serving process.

The :class:`DriftHub` is what :mod:`repro.serve` actually talks to: a
registry-backed collection of :class:`~repro.drift.monitor.DriftMonitor`
instances, created lazily the first time a model's traffic shows up.
Each monitor is profiled from the model's registry record (leaf
vocabulary, training leaf shares and — when ``repro publish`` stored it
— the training CPI moments), so the battery a model gets depends only
on the provenance it was published with.

The hub also owns the optional champion/challenger
:class:`~repro.drift.shadow.ShadowEvaluator`: when a shadow pair is
configured, every batch served by the champion is re-predicted through
the challenger's compiled tree and both prediction streams feed the
shadow windows.  The serving engine calls :meth:`observe` on its
batcher thread after the batch's futures are fulfilled; for an idle
request, once its handler has written the response, unless another
request's wake or a batcher flush gets there first.

The Eq. 4 profile detector needs each row's leaf.  The engine passes
the leaf slots its compiled kernel (:mod:`repro.mtree.compiled`)
already routed the batch to, so served rows are routed once; callers
that pass none, such as the offline replay, are routed here through
the model's compiled tree.

The registry argument is duck-typed (``resolve``/``load`` — the
:class:`repro.serve.registry.ModelRegistry` surface) so this module
does not import :mod:`repro.serve` and the serve package can import it
without a cycle.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.drift.monitor import (
    DriftEvent,
    DriftMonitor,
    DriftMonitorConfig,
    ModelProfile,
)
from repro.drift.shadow import ShadowEvaluator

__all__ = ["DriftHub"]


class _ObserveState:
    """Hot-path state pinned per served model after first use.

    ``kernel`` is the model's compiled tree, which routes rows when the
    caller passes no leaf slots.  ``vocab`` maps its leaf slots to the
    monitor's vocabulary indices (-1 for a leaf name the profile does
    not know), so classification emits monitor-ready indices without
    any per-record name lookups.
    """

    __slots__ = ("monitor", "kernel", "vocab")

    def __init__(self, monitor: DriftMonitor, kernel) -> None:
        self.monitor = monitor
        self.kernel = kernel
        index = {
            name: i for i, name in enumerate(monitor.profile.leaf_names)
        }
        self.vocab = np.asarray(
            [index.get(name, -1) for name in kernel.leaf_names],
            dtype=np.int64,
        )


class DriftHub:
    """Lazily monitors every model a serving process predicts with."""

    def __init__(
        self,
        registry,
        config: Optional[DriftMonitorConfig] = None,
        actions: Sequence[Callable[[DriftEvent], None]] = (),
        shadow: Optional[Tuple[str, str]] = None,
    ) -> None:
        """``shadow`` is an optional (champion ref, challenger ref) pair,
        checked as :meth:`set_shadow` checks it.
        """
        self.registry = registry
        self.config = config or DriftMonitorConfig()
        self.actions = tuple(actions)
        self._lock = threading.Lock()
        self._monitors: Dict[str, DriftMonitor] = {}
        # Taps see every observed batch's raw rows before the monitor
        # evaluates it — the pipeline's traffic buffer hangs here so
        # the batch that *trips* a verdict is part of the retrain data.
        self._taps: Tuple[
            Callable[[str, np.ndarray, np.ndarray, Optional[np.ndarray]], None],
            ...,
        ] = ()
        # Hot-path cache: observe() runs once per served batch, and the
        # registry's resolve()/load() each touch the filesystem, so the
        # (monitor, compiled tree) state is pinned per model id after
        # first use.
        self._observe_state: Dict[str, _ObserveState] = {}
        self._shadow: Optional[ShadowEvaluator] = None
        self._shadow_champion: Optional[str] = None
        self._shadow_kernel = None
        if shadow is not None:
            self.set_shadow(*shadow)

    # -- dynamic wiring (pipeline hooks) ---------------------------------

    def add_action(
        self, action: Callable[[DriftEvent], None]
    ) -> None:
        """Attach an action to the hub and every existing monitor.

        Monitors copy the hub's action list at creation time, so a
        late-attached consumer (the pipeline orchestrator arms itself
        after the hub exists) must be spliced into live monitors too.
        """
        with self._lock:
            self.actions = self.actions + (action,)
            for monitor in self._monitors.values():
                monitor.actions = monitor.actions + (action,)

    def add_tap(
        self,
        tap: Callable[
            [str, np.ndarray, np.ndarray, Optional[np.ndarray]], None
        ],
    ) -> None:
        """Attach a raw-batch tap: ``tap(model_id, X, predictions,
        actuals)`` runs at the top of every :meth:`observe` call,
        before the monitor evaluates the batch."""
        with self._lock:
            self._taps = self._taps + (tap,)

    def set_shadow(self, champion_ref: str, challenger_ref: str) -> None:
        """(Re-)configure the champion/challenger pair at runtime.

        Both refs must resolve, and the two models must share a feature
        schema: the challenger predicts on the champion's served rows,
        so a ValueError refuses a challenger that would read them as
        other features.
        """
        champion_id = self.registry.resolve(champion_ref)
        challenger_id = self.registry.resolve(challenger_ref)
        _, champion_tree = self.registry.load(champion_id)
        _, challenger_tree = self.registry.load(challenger_id)
        if challenger_tree.feature_names != champion_tree.feature_names:
            raise ValueError(
                f"challenger {challenger_id} has feature schema "
                f"{challenger_tree.feature_names}, champion {champion_id} "
                f"has {champion_tree.feature_names}"
            )
        challenger_kernel = challenger_tree.compiled()
        criteria = self.config.criteria
        evaluator = ShadowEvaluator(
            champion_id,
            challenger_id,
            window=self.config.window,
            criteria=criteria.transfer,
            min_labelled=criteria.min_labelled,
        )
        with self._lock:
            self._shadow = evaluator
            self._shadow_champion = champion_id
            self._shadow_kernel = challenger_kernel

    def clear_shadow(self) -> None:
        """Drop the shadow pair (end of a pipeline cycle)."""
        with self._lock:
            self._shadow = None
            self._shadow_champion = None
            self._shadow_kernel = None

    # -- monitors --------------------------------------------------------

    def monitor_for(self, ref: str) -> DriftMonitor:
        """The (lazily created) monitor for a model id or alias."""
        model_id = self.registry.resolve(ref)
        with self._lock:
            monitor = self._monitors.get(model_id)
            if monitor is None:
                record, tree = self.registry.load(model_id)
                monitor = DriftMonitor(
                    ModelProfile.from_record(record, tree),
                    config=self.config,
                    actions=self.actions,
                )
                self._monitors[model_id] = monitor
            return monitor

    def observe(
        self,
        model_id: str,
        X: np.ndarray,
        predictions: np.ndarray,
        actuals=None,
        slots: Optional[np.ndarray] = None,
    ) -> DriftEvent:
        """Feed one served batch into the model's monitor (and shadow).

        ``slots`` is each row's leaf slot in the model's compiled tree
        (:meth:`~repro.mtree.compiled.CompiledTree.route`), as the
        serving engine's kernel computed it; without it the rows are
        routed here.  The leaves feed the Eq. 4 profile detector.  When
        this model is the shadow champion, ``X`` also goes through the
        challenger's compiled tree, so both see identical inputs.

        The engine passes resolved model ids, so the monitor/kernel
        state is cached under the id given here; aliases still share
        one monitor because creation goes through :meth:`monitor_for`.
        """
        # Snapshot the shadow pair up front: a pipeline promotion (run
        # from a monitor action *inside* this very call) may clear or
        # replace it mid-batch, and the challenger feed below must only
        # reach the evaluator this batch was routed for.
        with self._lock:
            shadow = self._shadow
            shadow_champion = self._shadow_champion
            shadow_kernel = self._shadow_kernel
            taps = self._taps
        for tap in taps:
            tap(model_id, X, predictions, actuals)
        state = self._observe_state.get(model_id)
        if state is None:
            monitor = self.monitor_for(model_id)
            _, tree = self.registry.load(model_id)
            state = _ObserveState(monitor, tree.compiled())
            with self._lock:
                self._observe_state[model_id] = state
        if slots is None:
            slots = state.kernel.route(X)
        if shadow is not None and model_id == shadow_champion:
            # Predict the challenger *before* the monitor fires its
            # actions: a promote decision made inside an action sees a
            # shadow evaluator already fed with this batch.
            shadow.observe(predictions, shadow_kernel.predict(X), actuals)
        return state.monitor.observe(predictions, actuals, state.vocab[slots])

    # -- reading ---------------------------------------------------------

    @property
    def shadow(self) -> Optional[ShadowEvaluator]:
        return self._shadow

    def model_ids(self) -> Tuple[str, ...]:
        """Ids of every model currently being monitored."""
        with self._lock:
            return tuple(sorted(self._monitors))

    def report(self, ref: str) -> Dict[str, object]:
        """Drift report for one model, without creating a monitor.

        A model that has served no traffic yet reports its verdict as
        ``insufficient_data`` with zero records rather than erroring.
        """
        model_id = self.registry.resolve(ref)
        with self._lock:
            monitor = self._monitors.get(model_id)
        if monitor is None:
            return {
                "model_id": model_id,
                "verdict": "insufficient_data",
                "evaluations": 0,
                "records_seen": 0,
            }
        payload = monitor.report()
        if self._shadow is not None and model_id == self._shadow_champion:
            payload["shadow"] = self._shadow.recommendation()
        return payload

    def status(self) -> Dict[str, object]:
        """One JSON-ready rollup across every monitored model.

        Feeds the server's ``/v1/status`` document: per-model verdicts
        (full :meth:`report` payloads, transition history included) and
        the shadow recommendation when a champion/challenger pair is
        configured.
        """
        payload: Dict[str, object] = {
            "monitoring": True,
            "models": {
                model_id: self.report(model_id)
                for model_id in self.model_ids()
            },
        }
        if self._shadow is not None:
            payload["shadow"] = self._shadow.recommendation()
        return payload
