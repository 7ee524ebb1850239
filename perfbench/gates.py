"""Correctness gates.  Each returns a list of failures; empty means it passed."""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: sha256 of ``repro all --jobs 1`` stdout at the default configuration.
BATTERY_DIGEST = (Path(__file__).resolve().parent / "battery.sha256")


def predictions(
    results: Sequence,
    rows_of: Callable[[int], np.ndarray],
    predict: Callable[[str, np.ndarray], np.ndarray],
    champion: Optional[str] = None,
) -> List[str]:
    """Every answered request equals ``ModelTree.predict`` bit for bit.

    ``rows_of(i)`` gives request ``i``'s rows and ``predict(model_id,
    X)`` the float64 reference of the model the response names.  With
    ``champion`` set, every response must also name that model.
    """
    failures: List[str] = []
    expected: Dict[Tuple[str, bytes], bytes] = {}
    for result in results:
        if not result.ok:
            continue
        if champion is not None and result.model_id != champion:
            failures.append(
                f"request {result.index}: answered by {result.model_id}, "
                f"champion is {champion}"
            )
            continue
        X = rows_of(result.index)
        key = (result.model_id, X.tobytes())
        if key not in expected:
            expected[key] = np.asarray(
                predict(result.model_id, X), dtype=np.float64
            ).tobytes()
        got = np.asarray(result.predictions, dtype=np.float64).tobytes()
        if got != expected[key]:
            failures.append(
                f"request {result.index}: predictions of {result.model_id} "
                "differ from ModelTree.predict"
            )
    return failures[:5]


def registry_predict(registry_root: Path) -> Callable[[str, np.ndarray], np.ndarray]:
    from repro.serve.registry import ModelRegistry

    registry = ModelRegistry(registry_root, max_cached_trees=64)
    return lambda model_id, X: registry.load(model_id)[1].predict(X)


def promotions(registry_root: Path) -> List[str]:
    """The promotions trail's hash chain verifies."""
    from repro.pipeline.promotions import PromotionChainError, PromotionLog

    try:
        PromotionLog(registry_root / "promotions.jsonl").verify()
    except PromotionChainError as error:
        return [f"promotions trail: {error}"]
    return []


def battery_stdout(stdout: bytes, expected: Optional[str] = None) -> List[str]:
    """The battery's stdout hashes to the serial-run digest."""
    want = expected or BATTERY_DIGEST.read_text().split()[0]
    got = hashlib.sha256(stdout).hexdigest()
    if got != want:
        return [f"battery stdout sha256 {got[:12]}... != {want[:12]}..."]
    return []
