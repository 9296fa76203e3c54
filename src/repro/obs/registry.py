"""A registry of named, optionally labeled instruments.

Every metric the service exposes lives in one :class:`MetricsRegistry`:
scalar counters/gauges/histograms addressed by name, and *vectors* —
families of instruments addressed by name plus a small tuple of label
values (``tenant``, ``transport``, ``stage``...).  The registry is the
single source of truth for both the JSON ``/metrics`` form and the
Prometheus text exposition: each renders the same :meth:`snapshot`.

Label sets are attacker-controlled in places (a hostile principal can
invent unbounded tenant names), so every vector bounds its cardinality:
at most ``max_series`` live series per family, maintained LRU.  When a
new label set would exceed the cap, the least-recently-used series is
evicted and its accumulated counts fold into a reserved *overflow*
series (label value ``"_overflow"``).  Totals therefore stay exact —
``sum(series) + overflow`` never loses an increment — while memory
stays fixed no matter how many distinct labels arrive.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .instruments import Counter, Gauge, LatencyHistogram, aggregate_latency

#: Reserved label value that absorbs evicted series.
OVERFLOW_LABEL = "_overflow"

#: Default live-series cap per vector family.
DEFAULT_MAX_SERIES = 128

_KINDS = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": LatencyHistogram,
}


def _fold(kind: str, into: Any, source: Any) -> None:
    """Merge *source*'s accumulated state into *into* (same kind)."""
    if kind == "counter":
        into.increment(source.value)
    elif kind == "histogram":
        into.merge(source)
    # Gauges are instantaneous; an evicted gauge's value is simply dropped.


class InstrumentVec:
    """A family of same-kind instruments keyed by a label-value tuple."""

    __slots__ = ("kind", "name", "label_names", "max_series", "_series",
                 "_overflow", "_evicted", "_lock")

    def __init__(self, kind: str, name: str, label_names: Sequence[str],
                 max_series: int = DEFAULT_MAX_SERIES):
        if kind not in _KINDS:
            raise ValueError(f"unknown instrument kind: {kind!r}")
        if not label_names:
            raise ValueError("a vector needs at least one label name")
        self.kind = kind
        self.name = name
        self.label_names = tuple(label_names)
        self.max_series = max(1, int(max_series))
        self._series: "OrderedDict[Tuple[str, ...], object]" = OrderedDict()
        self._overflow = None
        self._evicted = 0
        self._lock = threading.Lock()

    def labels(self, *values: object) -> Any:
        """The instrument for this label-value tuple (LRU, bounded).

        Callers on hot paths should cache the returned instrument when
        the label set is fixed (e.g. a per-stage histogram); per-call
        lookup is one lock plus one dict probe.
        """
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected {len(self.label_names)} label "
                f"value(s), got {len(values)}"
            )
        key = tuple(str(value) for value in values)
        with self._lock:
            instrument = self._series.get(key)
            if instrument is not None:
                self._series.move_to_end(key)
                return instrument
            if len(self._series) >= self.max_series:
                _, evicted = self._series.popitem(last=False)
                self._evicted += 1
                if self._overflow is None:
                    self._overflow = _KINDS[self.kind]()
                _fold(self.kind, self._overflow, evicted)
            instrument = _KINDS[self.kind]()
            self._series[key] = instrument
            return instrument

    def series_items(self) -> List[Tuple[Dict[str, str], object]]:
        """``(labels_dict, instrument)`` per live series, overflow last."""
        with self._lock:
            items = [
                (dict(zip(self.label_names, key)), instrument)
                for key, instrument in self._series.items()
            ]
            if self._overflow is not None:
                labels = {name: OVERFLOW_LABEL for name in self.label_names}
                items.append((labels, self._overflow))
        return items

    @property
    def evicted(self) -> int:
        return self._evicted


class MetricsRegistry:
    """Named instruments, registered once and shared by all exporters."""

    def __init__(self, *, max_series: int = DEFAULT_MAX_SERIES):
        self._max_series = max_series
        self._scalars: "OrderedDict[str, Tuple[str, object]]" = OrderedDict()
        self._vectors: "OrderedDict[str, InstrumentVec]" = OrderedDict()
        self._lock = threading.Lock()

    # -- registration (get-or-create; kind mismatch is a bug) ----------

    def _scalar(self, kind: str, name: str) -> Any:
        with self._lock:
            entry = self._scalars.get(name)
            if entry is not None:
                if entry[0] != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {entry[0]}"
                    )
                return entry[1]
            if name in self._vectors:
                raise ValueError(f"metric {name!r} already registered as a vector")
            instrument = _KINDS[kind]()
            self._scalars[name] = (kind, instrument)
            return instrument

    def counter(self, name: str) -> Counter:
        return self._scalar("counter", name)

    def gauge(self, name: str) -> Gauge:
        return self._scalar("gauge", name)

    def histogram(self, name: str) -> LatencyHistogram:
        return self._scalar("histogram", name)

    def _vector(self, kind: str, name: str, label_names: Sequence[str],
                max_series: Optional[int]) -> InstrumentVec:
        with self._lock:
            vec = self._vectors.get(name)
            if vec is not None:
                if vec.kind != kind or vec.label_names != tuple(label_names):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{vec.kind}{vec.label_names}"
                    )
                return vec
            if name in self._scalars:
                raise ValueError(f"metric {name!r} already registered as a scalar")
            vec = InstrumentVec(
                kind, name, label_names,
                max_series if max_series is not None else self._max_series,
            )
            self._vectors[name] = vec
            return vec

    def counter_vec(self, name: str, label_names: Sequence[str],
                    max_series: Optional[int] = None) -> InstrumentVec:
        return self._vector("counter", name, label_names, max_series)

    def histogram_vec(self, name: str, label_names: Sequence[str],
                      max_series: Optional[int] = None) -> InstrumentVec:
        return self._vector("histogram", name, label_names, max_series)

    # -- export --------------------------------------------------------

    def snapshot(self) -> Dict:
        """A JSON-able view of every instrument.

        Histograms appear in the same mergeable sparse-bucket form as
        :meth:`LatencyHistogram.snapshot`, so the replica pool can combine
        registry snapshots exactly with :func:`merge_registry_snapshots`.
        """
        with self._lock:
            scalars = list(self._scalars.items())
            vectors = list(self._vectors.values())
        out: Dict = {"scalars": [], "vectors": []}
        for name, (kind, instrument) in scalars:
            entry: Dict = {"name": name, "kind": kind}
            if kind == "histogram":
                entry["histogram"] = instrument.snapshot()
            else:
                entry["value"] = instrument.value
            out["scalars"].append(entry)
        for vec in vectors:
            series = []
            for labels, instrument in vec.series_items():
                row: Dict = {"labels": labels}
                if vec.kind == "histogram":
                    row["histogram"] = instrument.snapshot()
                else:
                    row["value"] = instrument.value
                series.append(row)
            out["vectors"].append({
                "name": vec.name,
                "kind": vec.kind,
                "label_names": list(vec.label_names),
                "evicted_series": vec.evicted,
                "series": series,
            })
        return out


def merge_registry_snapshots(snapshots: Iterable[Dict]) -> Dict:
    """Combine per-shard :meth:`MetricsRegistry.snapshot` dicts exactly.

    Counters sum, gauges sum (they are sizes/occupancies here), and
    histograms merge bucket-by-bucket via :func:`aggregate_latency`;
    vector series align on their label dicts.
    """
    scalar_kinds: "OrderedDict[str, str]" = OrderedDict()
    scalar_values: Dict[str, float] = {}
    scalar_hists: Dict[str, List[Dict]] = {}
    vec_meta: "OrderedDict[str, Dict]" = OrderedDict()
    vec_values: Dict[str, "OrderedDict[Tuple, float]"] = {}
    vec_hists: Dict[str, "OrderedDict[Tuple, List[Dict]]"] = {}

    for snap in snapshots:
        if not isinstance(snap, dict):
            continue
        for entry in snap.get("scalars", ()):
            name, kind = entry["name"], entry["kind"]
            scalar_kinds.setdefault(name, kind)
            if kind == "histogram":
                scalar_hists.setdefault(name, []).append(entry["histogram"])
            else:
                scalar_values[name] = scalar_values.get(name, 0) + entry["value"]
        for vec in snap.get("vectors", ()):
            name = vec["name"]
            meta = vec_meta.setdefault(name, {
                "kind": vec["kind"],
                "label_names": list(vec["label_names"]),
                "evicted_series": 0,
            })
            meta["evicted_series"] += vec.get("evicted_series", 0)
            for row in vec.get("series", ()):
                key = tuple(sorted(row["labels"].items()))
                if vec["kind"] == "histogram":
                    rows = vec_hists.setdefault(name, OrderedDict())
                    rows.setdefault(key, []).append(row["histogram"])
                else:
                    rows = vec_values.setdefault(name, OrderedDict())
                    rows[key] = rows.get(key, 0) + row["value"]

    out: Dict = {"scalars": [], "vectors": []}
    for name, kind in scalar_kinds.items():
        entry = {"name": name, "kind": kind}
        if kind == "histogram":
            entry["histogram"] = aggregate_latency(scalar_hists.get(name, ()))
        else:
            entry["value"] = scalar_values.get(name, 0)
        out["scalars"].append(entry)
    for name, meta in vec_meta.items():
        series = []
        if meta["kind"] == "histogram":
            for key, hists in vec_hists.get(name, OrderedDict()).items():
                series.append({
                    "labels": dict(key),
                    "histogram": aggregate_latency(hists),
                })
        else:
            for key, value in vec_values.get(name, OrderedDict()).items():
                series.append({"labels": dict(key), "value": value})
        out["vectors"].append({
            "name": name,
            "kind": meta["kind"],
            "label_names": meta["label_names"],
            "evicted_series": meta["evicted_series"],
            "series": series,
        })
    return out
