"""repro.serve — model serving: registry, batching engine, HTTP API.

The paper's end product is a reusable artifact: a trained M5' tree
that predicts CPI and answers profile/similarity queries.  This
package keeps such trees alive beyond the training process:

* :mod:`repro.serve.registry` — a versioned, content-addressed on-disk
  store of serialized trees with integrity hashes, aliases
  (``latest``) and an in-process LRU of deserialized models.
* :mod:`repro.serve.engine` — a micro-batching prediction engine:
  requests coalesce in a queue and flush through the compiled kernel
  (max-batch / max-wait knobs).
* :mod:`repro.serve.api` — a threaded stdlib HTTP/JSON API with
  structured errors, request-size limits, graceful drain,
  ``X-Repro-Trace`` propagation, SLO tracking and opt-in per-request
  telemetry.
* :mod:`repro.serve.status` — the single ``/v1/status`` document and
  its ``/dashboard`` HTML / ``repro status`` terminal renderings.
* :mod:`repro.serve.publish` — train-and-register from an experiment
  configuration, embedding the run manifest as provenance.

CLI entry points: ``repro publish``, ``repro serve`` and
``repro status`` (see ``docs/SERVING.md``).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BatchConfig": "repro.serve.engine",
    "PredictionEngine": "repro.serve.engine",
    "ApiError": "repro.serve.api",
    "ModelServer": "repro.serve.api",
    "publish_from_config": "repro.serve.publish",
    "CorruptArtifact": "repro.serve.registry",
    "ModelNotFound": "repro.serve.registry",
    "ModelRecord": "repro.serve.registry",
    "ModelRegistry": "repro.serve.registry",
    "RegistryError": "repro.serve.registry",
    "build_status_document": "repro.serve.status",
    "render_dashboard_html": "repro.serve.status",
    "render_status_text": "repro.serve.status",
}

__all__ = [
    "ApiError",
    "BatchConfig",
    "CorruptArtifact",
    "ModelNotFound",
    "ModelRecord",
    "ModelRegistry",
    "ModelServer",
    "PredictionEngine",
    "RegistryError",
    "build_status_document",
    "publish_from_config",
    "render_dashboard_html",
    "render_status_text",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
