"""Prometheus text exposition (format 0.0.4) — renderer and parser.

No client library is vendored: the exposition format is line-oriented
text, and rendering it from a :meth:`MetricsRegistry.snapshot` dict is
~100 lines.  The parser exists for the test suite, which scrapes
``/metrics?format=prometheus`` and verifies every counter
and histogram count agrees with the JSON form — a round-trip guarantee
instead of trusting the renderer by eye.

The renderer takes the full service ``metrics_snapshot()`` dict.  The
``registry`` section is authoritative for everything it contains
(counters, tenant vectors, stage/latency histograms); remaining
numeric top-level entries (uptime, session/cache/kernel gauges) are
flattened into ``repro_*`` gauges so nothing visible in the JSON form
is missing from a scrape.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .instruments import LatencyHistogram

#: Content type advertised for the text exposition.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Top-level snapshot keys the registry section already covers (or that
#: are structural, not metrics).
_REGISTRY_COVERED = frozenset({
    "decisions", "accepted", "refused", "peeks", "latency",
    "registry", "shards",
})

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")

_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"          # metric name
    r"(?:\{([^}]*)\})?"                       # optional label block
    r"\s+(-?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|Inf)|NaN|\+Inf)$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _metric_name(name: str) -> str:
    name = _NAME_FIX.sub("_", name)
    return name if _NAME_OK.match(name) else "_" + name


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _label_block(labels: Optional[Mapping[str, str]]) -> str:
    if not labels:
        return ""
    parts = ", ".join(
        f'{_metric_name(str(k))}="{_escape(str(v))}"'
        for k, v in sorted(labels.items())
    )
    return "{" + parts + "}"


class _Writer:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self._typed: set = set()

    def type_line(self, name: str, kind: str) -> None:
        if name not in self._typed:
            self._typed.add(name)
            self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, labels: Optional[Mapping[str, str]],
               value: float) -> None:
        self.lines.append(f"{name}{_label_block(labels)} {_format_value(value)}")


def _emit_histogram(writer: _Writer, name: str, snap: Mapping,
                    labels: Optional[Mapping[str, str]] = None) -> None:
    """Cumulative ``_bucket``/``_sum``/``_count`` from a sparse snapshot."""
    writer.type_line(name, "histogram")
    base = dict(labels) if labels else {}
    bounds = LatencyHistogram.BOUNDS
    cumulative = 0
    for index, count in snap.get("buckets", ()):
        cumulative += count
        if index < len(bounds):
            le = f"{bounds[index]:.9g}"
            writer.sample(name + "_bucket", {**base, "le": le}, cumulative)
        # index == len(bounds) is the overflow bucket: only +Inf covers it.
    total = snap.get("count", cumulative)
    writer.sample(name + "_bucket", {**base, "le": "+Inf"}, total)
    writer.sample(name + "_sum", base or None,
                  snap.get("mean_us", 0.0) * 1e-6 * total)
    writer.sample(name + "_count", base or None, total)


def _emit_flat(
    writer: _Writer, prefix: str, value: Union[Mapping, int, float, object]
) -> None:
    """Numeric snapshot leaves become gauges: ``sessions.active`` ->
    ``repro_sessions_active``; non-numeric leaves are skipped."""
    if isinstance(value, Mapping):
        for key, sub in value.items():
            _emit_flat(writer, f"{prefix}_{key}", sub)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        name = _metric_name(prefix)
        writer.type_line(name, "gauge")
        writer.sample(name, None, value)


def render_prometheus(snapshot: Mapping) -> str:
    """The text exposition of a service (or router-merged) snapshot."""
    writer = _Writer()
    registry = snapshot.get("registry") or {}
    for entry in registry.get("scalars", ()):
        name = _metric_name(entry["name"])
        if entry["kind"] == "histogram":
            _emit_histogram(writer, name, entry["histogram"])
        else:
            writer.type_line(name, entry["kind"])
            writer.sample(name, None, entry["value"])
    for vec in registry.get("vectors", ()):
        name = _metric_name(vec["name"])
        for row in vec.get("series", ()):
            if vec["kind"] == "histogram":
                _emit_histogram(writer, name, row["histogram"], row["labels"])
            else:
                writer.type_line(name, vec["kind"])
                writer.sample(name, row["labels"], row["value"])
    for key, value in snapshot.items():
        if key in _REGISTRY_COVERED:
            continue
        _emit_flat(writer, f"repro_{key}", value)
    return "\n".join(writer.lines) + "\n"


def parse_prometheus(text: str) -> Dict:
    """Strict parse of an exposition into types and samples.

    Returns ``{"types": {name: kind}, "samples": {name: [(labels, value)]}}``
    where histogram series appear under their ``_bucket``/``_sum``/
    ``_count`` sample names.  Raises ``ValueError`` on any line that is
    neither a comment nor a well-formed sample.
    """
    types: Dict[str, str] = {}
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3].strip()
            elif len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                pass  # HELP text, or a TYPE we tolerate being sparse
            else:
                raise ValueError(f"line {number}: malformed comment: {line!r}")
            continue
        match = _SAMPLE.match(line)
        if not match:
            raise ValueError(f"line {number}: malformed sample: {line!r}")
        name, label_text, raw = match.groups()
        labels: Dict[str, str] = {}
        if label_text:
            consumed = 0
            for lab in _LABEL.finditer(label_text):
                labels[lab.group(1)] = (
                    lab.group(2)
                    .replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
                )
                consumed += 1
            if not consumed:
                raise ValueError(f"line {number}: malformed labels: {line!r}")
        if raw in ("+Inf", "Inf"):
            value = float("inf")
        elif raw == "-Inf":
            value = float("-inf")
        else:
            value = float(raw)
        samples.setdefault(name, []).append((labels, value))
    return {"types": types, "samples": samples}


def sample_value(parsed: Mapping, name: str,
                 labels: Optional[Mapping[str, str]] = None) -> Optional[float]:
    """The value of the sample matching *name* and exactly *labels*."""
    want = {str(k): str(v) for k, v in (labels or {}).items()}
    for got, value in parsed.get("samples", {}).get(name, ()):  # type: ignore[union-attr]
        if got == want:
            return value
    return None
