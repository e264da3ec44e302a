"""Persistent on-disk cache for expensive search artefacts.

Repeated benchmark and CLI invocations redo identical work, kept in six
kinds of entry: ``candidates`` (candidate sets + intra costs per operator
type), ``profiler`` (least-squares model fits), ``lowering`` (a plan's
priced engine terms), ``simreport`` (iteration reports), ``pipesim``
(pipeline replays) and ``plan`` (:mod:`repro.serve.store`'s searched
plans).  All are pure functions of their inputs, so the results are
stored on disk keyed by a content hash of everything that can influence
them (model shape, topology, alpha, beam, schema version, ...).
:func:`memoize` is the one path that wraps such a computation.

Keys are built by :func:`content_key` from a *canonical* byte encoding of
plain Python values (numbers, strings, tuples, dicts, enums, dataclasses) —
anything unstable (object identities, unsorted sets) is rejected rather
than silently hashed.  A part several keys share can be encoded once
(:func:`encoded`) and spliced into each, with the same digest.  Values are pickled together with
:data:`CACHE_VERSION`; entries written by an older schema, or corrupted on
disk, are deleted and recomputed with a logged warning — they never crash a
search.

:class:`MemoryLRU` is the in-process companion tier: a bounded,
thread-safe LRU of live objects that the serving daemon
(:mod:`repro.serve`) layers in front of this disk cache so hot plans are
answered without touching the filesystem.

Environment knobs:

* ``PRIMEPAR_CACHE_DIR`` — cache directory (default
  ``$XDG_CACHE_HOME/primepar`` or ``~/.cache/primepar``).
* ``PRIMEPAR_CACHE`` — set to ``0``/``off``/``false`` to disable entirely.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import logging
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

from .obs.metrics import counter, gauge

logger = logging.getLogger(__name__)

_T = TypeVar("_T")

#: Bump whenever the content of any cached artefact changes meaning
#: (cost-model changes, CandidateSet layout changes, ...).  Old entries are
#: detected on load, deleted and recomputed.
CACHE_VERSION = 3

_ENV_DIR = "PRIMEPAR_CACHE_DIR"
_ENV_SWITCH = "PRIMEPAR_CACHE"
_OFF_VALUES = {"0", "off", "false", "no"}


def cache_enabled() -> bool:
    """Whether the persistent cache is active (``PRIMEPAR_CACHE`` switch)."""
    return os.environ.get(_ENV_SWITCH, "1").strip().lower() not in _OFF_VALUES


def cache_dir() -> Path:
    """The cache directory (not created until first :func:`store`)."""
    override = os.environ.get(_ENV_DIR, "").strip()
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    root = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return root / "primepar"


#: Each dataclass type's field names, in declaration order, once its
#: first instance is encoded.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}

_SCALAR_TYPES = (type(None), bool, int, float)


def _canonical(value: Any, out: list) -> None:
    """Append an injective byte encoding of ``value`` to ``out``.

    Containers are tagged and length-prefixed so distinct structures never
    collide; dict items are sorted by their encoded keys for order
    independence.  Unsupported types raise ``TypeError`` — callers treat
    that as "not cacheable", never as a silent unstable hash.

    The exact types ``str``, ``tuple``, ``list``, ``None``, ``bool``,
    ``int`` and ``float``, and dataclass types already seen, skip the
    ``isinstance`` chain below; every other type (subclasses such as an
    ``IntEnum`` included) takes it, so the bytes are the chain's either
    way.
    """
    cls = type(value)
    if cls is str:
        data = value.encode()
        out.append(b"s%d:" % len(data) + data)
        return
    if cls is tuple or cls is list:
        out.append(b"t%d:(" % len(value))
        for item in value:
            _canonical(item, out)
        out.append(b")")
        return
    if cls in _SCALAR_TYPES:
        out.append(f"{cls.__name__}:{value!r};".encode())
        return
    names = _FIELD_NAMES.get(cls)
    if names is not None:
        out.append(f"d:{cls.__qualname__}(".encode())
        for name in names:
            _canonical(name, out)
            _canonical(getattr(value, name), out)
        out.append(b")")
        return
    if value is None or isinstance(value, (bool, int, float, complex)):
        out.append(f"{type(value).__name__}:{value!r};".encode())
    elif isinstance(value, str):
        out.append(b"s%d:" % len(value.encode()) + value.encode())
    elif isinstance(value, bytes):
        if isinstance(value, Encoded):
            out.append(value)
        else:
            out.append(b"b%d:" % len(value) + value)
    elif isinstance(value, enum.Enum):
        _canonical((type(value).__qualname__, value.value), out)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        _FIELD_NAMES[cls] = tuple(
            field.name for field in dataclasses.fields(value)
        )
        _canonical(value, out)
    elif isinstance(value, (tuple, list)):
        out.append(b"t%d:(" % len(value))
        for item in value:
            _canonical(item, out)
        out.append(b")")
    elif isinstance(value, (dict,)):
        items = []
        for key, item in value.items():
            encoded: list = []
            _canonical(key, encoded)
            _canonical(item, encoded)
            items.append(b"".join(encoded))
        out.append(b"m%d:{" % len(items))
        out.extend(sorted(items))
        out.append(b"}")
    elif isinstance(value, (set, frozenset)):
        items = []
        for item in value:
            encoded = []
            _canonical(item, encoded)
            items.append(b"".join(encoded))
        out.append(b"f%d:{" % len(items))
        out.extend(sorted(items))
        out.append(b"}")
    else:
        raise TypeError(f"value of type {type(value)!r} is not cacheable")


class Encoded(bytes):
    """A value's canonical encoding, made by :func:`encoded`.

    :func:`content_key` splices it in verbatim, so a key holding it has
    the digest of a key holding the value, and a part shared by several
    keys is encoded once.
    """


def encoded(value: Any) -> Any:
    """``value``'s :class:`Encoded` bytes, or ``value`` itself if it
    cannot be canonically encoded (so :func:`memo_key` still says so)."""
    out: list = []
    try:
        _canonical(value, out)
    except TypeError:
        return value
    return Encoded(b"".join(out))


def content_key(kind: str, *parts: Any) -> str:
    """Stable hex digest identifying one cached artefact.

    Raises ``TypeError`` when a part cannot be canonically encoded;
    :func:`memo_key` turns that into "do not cache".
    """
    encoded: list = []
    _canonical((CACHE_VERSION, kind) + parts, encoded)
    return hashlib.sha256(b"".join(encoded)).hexdigest()


def memo_key(*key_parts: Any) -> Optional[str]:
    """:func:`content_key` of ``key_parts``, or ``None`` when a part cannot
    be canonically encoded (the artefact is then computed uncached)."""
    try:
        return content_key(*key_parts)
    except TypeError:
        return None


def memoize(
    kind: str,
    key_parts: Tuple[Any, ...],
    compute: Callable[[], _T],
    expect: type,
) -> Tuple[_T, bool]:
    """``compute()`` memoized on disk; returns ``(value, hit)``.

    The entry is stored as a ``kind`` file under :func:`memo_key` of
    ``key_parts``, whose first part names the key (it may differ from the
    file ``kind``).  A loaded value that is not an ``expect`` instance
    counts as a miss.
    """
    key = memo_key(*key_parts)
    if key is not None:
        value = load(kind, key)
        if isinstance(value, expect):
            return value, True
    value = compute()
    if key is not None:
        store(kind, key, value)
    return value, False


def _entry_path(kind: str, key: str) -> Path:
    return cache_dir() / f"{kind}-{key[:40]}.pkl"


def _discard(path: Path, kind: str, reason: str, cause: str) -> None:
    logger.warning("primepar cache: discarding %s (%s)", path.name, reason)
    counter("cache.discards", kind=kind, cause=cause).inc()
    try:
        path.unlink()
    except OSError:
        pass


def load(kind: str, key: str) -> Optional[Any]:
    """Fetch a cached value, or ``None`` on miss/corruption/schema drift."""
    if not cache_enabled():
        return None
    path = _entry_path(kind, key)
    try:
        with open(path, "rb") as handle:
            entry = pickle.load(handle)
    except FileNotFoundError:
        counter("cache.misses", kind=kind).inc()
        return None
    except Exception as exc:  # corrupt pickle, truncated file, ...
        _discard(path, kind, f"corrupt entry: {exc}", cause="corrupt")
        counter("cache.misses", kind=kind).inc()
        return None
    if not isinstance(entry, dict) or entry.get("version") != CACHE_VERSION:
        _discard(path, kind, "stale schema version", cause="stale")
        counter("cache.misses", kind=kind).inc()
        return None
    counter("cache.hits", kind=kind).inc()
    return entry.get("value")


def store(kind: str, key: str, value: Any) -> None:
    """Persist a value atomically (write-to-temp + rename); best effort."""
    if not cache_enabled():
        return
    directory = cache_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(
                    {"version": CACHE_VERSION, "value": value},
                    handle,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            os.replace(tmp_name, _entry_path(kind, key))
            counter("cache.stores", kind=kind).inc()
        except BaseException:
            os.unlink(tmp_name)
            raise
    except Exception as exc:  # read-only FS, quota, ... — never fatal
        counter("cache.store_errors", kind=kind).inc()
        logger.warning("primepar cache: failed to store %s entry: %s", kind, exc)


def clear() -> int:
    """Remove every cache entry; returns how many files were deleted."""
    directory = cache_dir()
    removed = 0
    if not directory.is_dir():
        return removed
    for path in directory.glob("*.pkl"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def entry_count() -> int:
    directory = cache_dir()
    return sum(1 for _ in directory.glob("*.pkl")) if directory.is_dir() else 0


def total_bytes() -> int:
    directory = cache_dir()
    if not directory.is_dir():
        return 0
    return sum(path.stat().st_size for path in directory.glob("*.pkl"))


class MemoryLRU:
    """Bounded in-memory LRU tier, layerable in front of the disk cache.

    Holds live Python objects (no pickling on the hot path), evicting the
    least-recently-used entry once ``max_entries`` is reached.  All
    operations are thread-safe — the serving daemon shares one instance
    across request threads.  Traffic is instrumented in the current
    metrics registry under ``<namespace>.hits`` / ``.misses`` /
    ``.evictions`` (counters) and ``<namespace>.entries`` / ``.bytes``
    (gauges); :meth:`stats` reports the same numbers for this instance
    alone (registry counters aggregate across instances of a namespace).

    Entry sizes are estimated by pickling the value once on ``put``
    (unpicklable values count as size 0 rather than failing).
    """

    def __init__(self, max_entries: int, namespace: str = "memlru") -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.namespace = namespace
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Optional[Any]:
        """The cached value (refreshing its recency), or ``None`` on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                counter(f"{self.namespace}.misses").inc()
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            counter(f"{self.namespace}.hits").inc()
            return entry[0]

    def put(self, key: str, value: Any, size: Optional[int] = None) -> None:
        """Insert/refresh ``key``; evicts the LRU entry beyond capacity."""
        if size is None:
            try:
                size = len(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
            except Exception:
                size = 0
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= previous[1]
            self._entries[key] = (value, size)
            self._bytes += size
            while len(self._entries) > self.max_entries:
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self._bytes -= evicted_size
                self._evictions += 1
                counter(f"{self.namespace}.evictions").inc()
            gauge(f"{self.namespace}.entries").set(len(self._entries))
            gauge(f"{self.namespace}.bytes").set(self._bytes)

    def clear(self) -> int:
        """Drop every entry; returns how many were held."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            gauge(f"{self.namespace}.entries").set(0)
            gauge(f"{self.namespace}.bytes").set(0)
            return dropped

    def stats(self) -> Dict[str, int]:
        """This instance's lifetime traffic and current occupancy."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_entries": self.max_entries,
            }


def stats_by_kind() -> Dict[str, Tuple[int, int]]:
    """Per-kind ``(entry count, total bytes)`` of the on-disk cache.

    The kind is recovered from the ``{kind}-{digest}.pkl`` file layout;
    files that do not match (foreign droppings) are grouped under ``"?"``.
    """
    directory = cache_dir()
    stats: Dict[str, Tuple[int, int]] = {}
    if not directory.is_dir():
        return stats
    for path in directory.glob("*.pkl"):
        kind = path.stem.rsplit("-", 1)[0] if "-" in path.stem else "?"
        count, size = stats.get(kind, (0, 0))
        try:
            size += path.stat().st_size
        except OSError:
            continue
        stats[kind] = (count + 1, size)
    return stats
