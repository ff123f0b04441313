"""LSM-style ingest lifecycle: durable, growable FREE index directories.

The paper indexes a frozen crawl once; a streaming log-analysis
workload needs the index to answer queries *while it grows*.  This
module turns :class:`~repro.index.segmented.SegmentedGramIndex` from an
in-memory toy into a crash-safe on-disk lifecycle, the standard LSM
shape (Lucene / LevelDB / codesearch):

* incoming documents land in an in-memory **memtable** and, durably, in
  a JSONL **write-ahead log** (``wal.jsonl``) — the WAL doubles as the
  document store, so reopening a directory replays it to recover both
  the memtable and the text of sealed documents;
* when the memtable reaches ``memtable_docs`` units it **seals** into an
  immutable FREEIDX2 mmap segment image (``seg-N.img``) via the
  existing :func:`~repro.index.serialize.save_index` /
  :class:`~repro.index.serialize.MappedGramIndex` path;
* a JSON **manifest** (``MANIFEST.json``), atomically replaced and
  generation-numbered, records the live segments, their global doc ids,
  tombstones, and per-source ingest offsets — it is the single source
  of truth for what a reopened directory serves;
* **tiered compaction** groups segments into size classes
  (``tier = floor(log_fanout(n_live))``) and rewrites any class holding
  ``fanout`` or more segments into one segment, dropping tombstoned
  docs, without blocking queries;
* **deletes** tombstone sealed docs (purged at the next compaction) and
  drop memtable docs outright.

Crash-safety argument (see ``docs/ingest.md``): every mutation is in
the WAL before it is acknowledged; segment images are written and
fsynced *before* the manifest swap that makes them visible; the
manifest swap itself is atomic (tmp + fsync + ``os.replace`` + dir
fsync).  A crash between image write and manifest swap leaves an orphan
``seg-*.img`` that reopening garbage-collects; the docs it covered are
still in the WAL and recover into the memtable.  Compaction unlinks its
victims only *after* the swap, and on POSIX an unlinked-but-mmapped
image stays readable, so in-flight queries holding the old segment
snapshot drain safely.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.corpus.document import DataUnit
from repro.corpus.store import CorpusStore, InMemoryCorpus
from repro.errors import CorpusError, IngestError, InternalError
from repro.index.builder import MultigramIndexBuilder
from repro.index.multigram import GramIndex
from repro.index.segmented import Segment, SegmentedGramIndex
from repro.index.serialize import load_index, save_index
from repro.iomodel.diskmodel import DiskModel
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.trace import Trace, maybe_span

MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.jsonl"
MANIFEST_FORMAT = "free-ingest-manifest/1"
SEGMENT_PREFIX = "seg-"
SEGMENT_SUFFIX = ".img"

#: Directive line recognized by :meth:`IngestDirectory.ingest_log`:
#: ``!delete 17`` tombstones doc 17 instead of adding a document.
DELETE_DIRECTIVE = "!delete"


# ---------------------------------------------------------------------------
# Manifest


@dataclass
class SegmentRecord:
    """One sealed segment as the manifest records it.

    The image file stores only the gram index over dense local ids;
    the global doc ids it covers (in local-id order) live here.
    """

    name: str
    doc_ids: List[int]

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "doc_ids": list(self.doc_ids)}


@dataclass
class Manifest:
    """The durable root of an ingest directory.

    ``generation`` increases by exactly one at every swap, so observers
    (and the SEG006 invariant check) can prove no update was lost.
    """

    generation: int = 0
    next_doc_id: int = 0
    next_segment_id: int = 0
    segments: List[SegmentRecord] = field(default_factory=list)
    tombstones: List[int] = field(default_factory=list)
    source_offsets: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "format": MANIFEST_FORMAT,
            "generation": self.generation,
            "next_doc_id": self.next_doc_id,
            "next_segment_id": self.next_segment_id,
            "segments": [record.as_dict() for record in self.segments],
            "tombstones": sorted(self.tombstones),
            "source_offsets": dict(self.source_offsets),
        }

    @staticmethod
    def from_dict(raw: Dict[str, object], path: str) -> "Manifest":
        if raw.get("format") != MANIFEST_FORMAT:
            raise IngestError(
                f"{path!r}: unsupported manifest format "
                f"{raw.get('format')!r}"
            )
        try:
            segments = [
                SegmentRecord(
                    name=str(entry["name"]),
                    doc_ids=[int(i) for i in entry["doc_ids"]],
                )
                for entry in raw["segments"]  # type: ignore[union-attr]
            ]
            return Manifest(
                generation=int(raw["generation"]),  # type: ignore[arg-type]
                next_doc_id=int(raw["next_doc_id"]),  # type: ignore[arg-type]
                next_segment_id=int(
                    raw["next_segment_id"]  # type: ignore[arg-type]
                ),
                segments=segments,
                tombstones=[
                    int(i) for i in raw["tombstones"]  # type: ignore
                ],
                source_offsets={
                    str(k): int(v)
                    for k, v in raw["source_offsets"].items()  # type: ignore
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise IngestError(f"{path!r}: malformed manifest: {exc}") from exc


def manifest_path(dirpath: str) -> str:
    return os.path.join(dirpath, MANIFEST_NAME)


def read_manifest(dirpath: str) -> Optional[Manifest]:
    """Load the manifest, or None when the directory has none yet."""
    path = manifest_path(dirpath)
    try:
        with open(path, "r", encoding="utf-8") as infile:
            raw = json.load(infile)
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError) as exc:
        raise IngestError(f"{path!r}: unreadable manifest: {exc}") from exc
    if not isinstance(raw, dict):
        raise IngestError(f"{path!r}: manifest is not a JSON object")
    return Manifest.from_dict(raw, path)


def write_manifest(dirpath: str, manifest: Manifest) -> None:
    """Atomically replace the manifest (tmp + fsync + rename + dir sync).

    After this returns, either the old or the new manifest is fully on
    disk — never a torn mixture — so a crash at any point leaves a
    directory that reopens to a consistent generation.
    """
    path = manifest_path(dirpath)
    tmp = path + ".tmp"
    payload = json.dumps(manifest.as_dict(), indent=2, sort_keys=True)
    with open(tmp, "w", encoding="utf-8") as out:
        out.write(payload + "\n")
        out.flush()
        os.fsync(out.fileno())
    os.replace(tmp, path)
    _fsync_dir(dirpath)


def _fsync_dir(dirpath: str) -> None:
    # Persist the rename itself.  Some filesystems refuse O_RDONLY
    # directory fsync; losing it only risks the rename ordering, not
    # atomicity, so degrade silently there.
    with contextlib.suppress(OSError):
        fd = os.open(dirpath, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def segment_file_name(segment_id: int) -> str:
    return f"{SEGMENT_PREFIX}{segment_id}{SEGMENT_SUFFIX}"


def is_segment_file(name: str) -> bool:
    return name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)


# ---------------------------------------------------------------------------
# Corpus over live documents (sparse global ids)


class IngestCorpus(CorpusStore):
    """The live documents of an ingest directory, keyed by global id.

    Unlike the dense stores, ids are sparse: deleting doc 3 leaves a
    hole.  Exactly the surviving documents are present, so a full
    confirmation scan over this store is always sound.

    Deliberately has no ``close`` method: serve slots wrap their corpus
    in a per-request ``DeadlineCorpus`` whose ``close()`` forwards to
    the inner store, and this store is shared across all workers.

    Deleted units move to a **graveyard** instead of vanishing: a query
    that snapshotted its candidate list just before a concurrent delete
    can still confirm those ids (snapshot semantics) instead of
    crashing mid-read.  The graveyard is invisible to ``len``/
    iteration/``total_chars`` and is purged at the WAL checkpoint of a
    full compaction — the same point the deleted text leaves the log.
    """

    def __init__(self, units: Sequence[DataUnit] = ()):
        self._units: Dict[int, DataUnit] = {}
        self._graveyard: Dict[int, DataUnit] = {}
        self._total_chars = 0
        for unit in units:
            self.add(unit)

    def add(self, unit: DataUnit) -> None:
        if unit.doc_id in self._units:
            raise CorpusError(f"doc_id {unit.doc_id} already present")
        self._units[unit.doc_id] = unit
        self._graveyard.pop(unit.doc_id, None)
        self._total_chars += len(unit.text)

    def remove(self, doc_id: int) -> DataUnit:
        unit = self._units.pop(doc_id, None)
        if unit is None:
            raise CorpusError(f"doc_id {doc_id} not present")
        self._total_chars -= len(unit.text)
        self._graveyard[doc_id] = unit
        return unit

    def purge_graveyard(self) -> int:
        """Forget retained deleted units; returns how many were held."""
        n_purged = len(self._graveyard)
        self._graveyard.clear()
        return n_purged

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._units

    def __len__(self) -> int:
        return len(self._units)

    def get(self, doc_id: int) -> DataUnit:
        unit = self._units.get(doc_id)
        if unit is None:
            unit = self._graveyard.get(doc_id)
        if unit is None:
            raise CorpusError(f"doc_id {doc_id} not present")
        return unit

    def ids(self) -> List[int]:  # type: ignore[override]
        return sorted(self._units)

    def __iter__(self) -> Iterator[DataUnit]:
        for doc_id in sorted(self._units):
            yield self._units[doc_id]

    @property
    def total_chars(self) -> int:
        return self._total_chars

    def __repr__(self) -> str:
        return (
            f"IngestCorpus({len(self)} units, {self.total_chars} chars)"
        )


# ---------------------------------------------------------------------------
# Segmented index with a memtable


class IngestIndex(SegmentedGramIndex):
    """A segmented index whose newest documents live in a memtable.

    Memtable documents are not gram-indexed yet, so every query treats
    them as candidates wholesale — sound (candidates may only
    over-approximate) and cheap while the memtable is bounded by the
    seal threshold.  Every mutation bumps ``epoch`` so engine caches
    keyed on it can never serve a stale view.

    All mutators and the query-time snapshot take ``_lock``, making the
    index safe for one writer thread concurrent with many readers.
    """

    def __init__(self, builder: Optional[MultigramIndexBuilder] = None):
        super().__init__(builder)
        self.memtable: Dict[int, DataUnit] = {}
        self._lock = threading.RLock()

    # -- mutators (all bump epoch under the lock) -------------------------

    def memtable_add(self, unit: DataUnit) -> None:
        with self._lock:
            if unit.doc_id in self.memtable or (
                unit.doc_id in self._segment_of
            ):
                raise IngestError(
                    f"doc id {unit.doc_id} is already indexed"
                )
            self.memtable[unit.doc_id] = unit
            self.epoch += 1

    def memtable_discard(self, doc_id: int) -> bool:
        with self._lock:
            if doc_id not in self.memtable:
                return False
            del self.memtable[doc_id]
            self.epoch += 1
            return True

    def delete(self, doc_id: int) -> bool:
        """Tombstone a sealed doc, or drop it straight from the
        memtable; False if unknown or already deleted (never
        double-counts)."""
        with self._lock:
            if doc_id in self.memtable:
                del self.memtable[doc_id]
                self.epoch += 1
                return True
            return super().delete(doc_id)

    def add_segment(
        self, global_ids: Sequence[int], index: GramIndex
    ) -> Segment:
        """Register an already-built (typically mmap-loaded) segment.

        Unlike :meth:`add_documents` this does not rebuild the gram
        index — sealing builds the image once and mounts it here.
        """
        with self._lock:
            for gid in global_ids:
                if gid in self._segment_of:
                    raise IngestError(f"doc id {gid} is already sealed")
            segment = Segment(global_ids, index)
            self.segments.append(segment)
            for gid in global_ids:
                self._segment_of[gid] = segment
            self.epoch += 1
            return segment

    def seal_segment(
        self, global_ids: Sequence[int], index: GramIndex
    ) -> Segment:
        """Atomically move ``global_ids`` from the memtable into a new
        sealed segment (the ids must be exactly memtable members)."""
        with self._lock:
            for gid in global_ids:
                if gid not in self.memtable:
                    raise InternalError(
                        f"sealing doc {gid} that is not in the memtable"
                    )
            segment = self.add_segment(global_ids, index)
            for gid in global_ids:
                del self.memtable[gid]
            # add_segment already bumped the epoch for this mutation.
            return segment

    def drop_segments(self, victims: Sequence[Segment]) -> None:
        """Unregister compacted-away segments (their replacement, if
        any, must be added separately)."""
        with self._lock:
            victim_set = set(map(id, victims))
            self.segments = [
                segment for segment in self.segments
                if id(segment) not in victim_set
            ]
            for segment in victims:
                for gid in segment.global_ids:
                    if self._segment_of.get(gid) is segment:
                        del self._segment_of[gid]
            self.epoch += 1

    def replace_segments(
        self,
        victims: Sequence[Segment],
        global_ids: Optional[Sequence[int]] = None,
        index: Optional[GramIndex] = None,
    ) -> Optional[Segment]:
        """Atomically swap ``victims`` for one replacement segment.

        Dropping and re-adding under separate lock acquisitions would
        open a window where a concurrent snapshot sees the victims gone
        but their rewrite not yet mounted — live docs briefly
        unanswerable.  One lock hold means readers observe either the
        old view or the new one, never the gap.  ``index=None`` swaps
        in nothing (every victim doc was tombstoned).
        """
        with self._lock:
            self.drop_segments(victims)
            if index is None:
                return None
            return self.add_segment(
                global_ids if global_ids is not None else [], index
            )

    # -- snapshots and queries --------------------------------------------

    def snapshot(self) -> Tuple[List[Segment], Optional[List[int]]]:
        """(segments, memtable ids) under the lock; queries iterate the
        returned lists so a concurrent seal/compaction never mutates
        what they are reading.

        The memtable list is never None, even when empty, so
        :meth:`candidates` never answers "scan everything": the
        explicit live-id list of this snapshot is the full scan here.
        """
        with self._lock:
            return list(self.segments), sorted(self.memtable)

    @property
    def n_memtable(self) -> int:
        return len(self.memtable)

    @property
    def n_total_live(self) -> int:
        return self.n_live + len(self.memtable)

    def __repr__(self) -> str:
        return (
            f"IngestIndex({len(self.segments)} segments, "
            f"{self.n_live} sealed live + {len(self.memtable)} memtable "
            f"docs, epoch {self.epoch})"
        )


# ---------------------------------------------------------------------------
# The directory lifecycle


class IngestDirectory:
    """A durable, growable FREE index rooted at one directory.

    Single-writer, many-reader: ``add``/``delete``/``seal``/``compact``
    must come from one thread at a time (an internal lock enforces
    mutual exclusion), while any number of engines may query the
    :attr:`index`/:attr:`corpus` pair concurrently.

    Open with ``read_only=True`` to serve queries from a directory some
    other process is writing — no WAL handle is taken and every mutator
    raises :class:`~repro.errors.IngestError`.
    """

    def __init__(
        self,
        path: str,
        *,
        create: bool = True,
        read_only: bool = False,
        builder: Optional[MultigramIndexBuilder] = None,
        memtable_docs: int = 256,
        fanout: int = 4,
        auto_compact: bool = True,
        registry: Optional[MetricsRegistry] = None,
        disk: Optional[DiskModel] = None,
    ):
        if memtable_docs < 1:
            raise IngestError("memtable_docs must be >= 1")
        if fanout < 2:
            raise IngestError("compaction fanout must be >= 2")
        self.path = os.path.abspath(path)
        self.read_only = read_only
        self.memtable_docs = memtable_docs
        self.fanout = fanout
        self.auto_compact = auto_compact
        self.disk = disk if disk is not None else DiskModel()
        self._registry = registry if registry is not None else get_registry()
        self._metrics = _IngestMetrics(self._registry)
        self._lock = threading.RLock()
        self._wal = None  # set only after a successful open

        manifest = read_manifest(self.path)
        if manifest is None:
            if read_only:
                raise IngestError(
                    f"{self.path!r}: no manifest (nothing to serve "
                    "read-only)"
                )
            if not create:
                raise IngestError(
                    f"{self.path!r}: not an ingest directory "
                    "(pass create=True to initialize)"
                )
            os.makedirs(self.path, exist_ok=True)
            manifest = Manifest()
            write_manifest(self.path, manifest)

        self.index = IngestIndex(builder)
        self.corpus = IngestCorpus()
        self._generation = manifest.generation
        self._next_doc_id = manifest.next_doc_id
        self._next_segment_id = manifest.next_segment_id
        self._source_offsets = dict(manifest.source_offsets)
        self._recover(manifest)
        if not read_only:
            self._gc_orphans(manifest)
            self._wal = open(
                os.path.join(self.path, WAL_NAME), "a", encoding="utf-8"
            )
        self._metrics.observe_state(self)

    # -- recovery ---------------------------------------------------------

    def _recover(self, manifest: Manifest) -> None:
        """Rebuild in-memory state from the manifest + WAL.

        The manifest names the sealed segments; the WAL supplies every
        document's text and the delete history.  The recovered view is
        exactly the pre-crash acknowledged state: sealed docs mount
        from their images, live unsealed docs land back in the
        memtable, and deletes replay as tombstones.
        """
        docs, deleted = self._replay_wal()
        # The manifest's next_doc_id only persists at seal time; docs
        # acknowledged into the WAL since then must still never have
        # their ids reused.
        for doc_id in list(docs) + sorted(deleted):
            if doc_id >= self._next_doc_id:
                self._next_doc_id = doc_id + 1
        sealed: Set[int] = set()
        for record in manifest.segments:
            image = os.path.join(self.path, record.name)
            try:
                gram_index = load_index(image)
            except OSError as exc:
                raise IngestError(
                    f"{self.path!r}: manifest generation "
                    f"{manifest.generation} references lost segment "
                    f"image {record.name!r}: {exc}"
                ) from exc
            segment = self.index.add_segment(record.doc_ids, gram_index)
            segment.file_name = record.name
            sealed.update(record.doc_ids)
            for doc_id in record.doc_ids:
                if doc_id >= self._next_doc_id:
                    raise IngestError(
                        f"{self.path!r}: segment {record.name!r} covers "
                        f"doc {doc_id} >= next_doc_id "
                        f"{self._next_doc_id}"
                    )
                unit = docs.get(doc_id)
                if unit is None and doc_id not in deleted:
                    raise IngestError(
                        f"{self.path!r}: sealed doc {doc_id} has no WAL "
                        "record (truncated log?)"
                    )
        for tombstone in manifest.tombstones:
            if tombstone not in sealed:
                raise IngestError(
                    f"{self.path!r}: tombstone {tombstone} references "
                    "no sealed document"
                )
            deleted.add(tombstone)
        for doc_id in sorted(deleted):
            if doc_id in sealed:
                self.index.delete(doc_id)
            docs.pop(doc_id, None)
        for doc_id in sorted(docs):
            unit = docs[doc_id]
            self.corpus.add(unit)
            if doc_id not in sealed:
                self.index.memtable_add(unit)
        # The epoch must dominate both the durable generation (so a
        # reopened directory's caches cannot collide with the previous
        # incarnation's) and the SEG004 floor.
        floor = len(self.index.segments) + self.index.n_deleted
        self.index.epoch = max(self.index.epoch, self._generation, floor)

    def _replay_wal(self) -> Tuple[Dict[int, DataUnit], Set[int]]:
        docs: Dict[int, DataUnit] = {}
        deleted: Set[int] = set()
        wal = os.path.join(self.path, WAL_NAME)
        try:
            with open(wal, "r", encoding="utf-8") as infile:
                lines = infile.readlines()
        except FileNotFoundError:
            return docs, deleted
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            torn_tail = lineno == len(lines) and not line.endswith("\n")
            try:
                record = json.loads(stripped)
                op = record["op"]
                doc_id = int(record["id"])
                if op == "add":
                    docs[doc_id] = DataUnit(
                        doc_id, record["text"], record.get("url", "")
                    )
                    deleted.discard(doc_id)
                elif op == "del":
                    docs.pop(doc_id, None)
                    deleted.add(doc_id)
                else:
                    raise ValueError(f"unknown op {op!r}")
            except (KeyError, TypeError, ValueError) as exc:
                if torn_tail:
                    # A crash mid-append leaves one torn final line;
                    # the record was never acknowledged, so drop it.
                    break
                raise IngestError(
                    f"{wal!r}: malformed WAL record on line "
                    f"{lineno}: {exc}"
                ) from exc
        return docs, deleted

    def _gc_orphans(self, manifest: Manifest) -> None:
        """Unlink segment images the manifest does not reference — the
        residue of a crash between image write and manifest swap."""
        live = {record.name for record in manifest.segments}
        for name in sorted(os.listdir(self.path)):
            if is_segment_file(name) and name not in live:
                os.unlink(os.path.join(self.path, name))
                self._metrics.orphans_gc.inc()

    # -- mutations --------------------------------------------------------

    def add(self, text: str, url: str = "", trace: Optional[Trace] = None,
            ) -> int:
        """Ingest one document; returns its global doc id.

        The WAL record is flushed before the document becomes
        queryable.  Sealing (and tiered compaction, when enabled)
        triggers automatically at the memtable threshold.
        """
        self._require_writable()
        with self._lock, maybe_span(trace, "ingest_add"):
            doc_id = self._next_doc_id
            self._next_doc_id += 1
            unit = DataUnit(doc_id, text, url)
            self._wal_append(
                {"op": "add", "id": doc_id, "text": text, "url": url}
            )
            self.corpus.add(unit)
            self.index.memtable_add(unit)
            self._metrics.docs.inc()
            if self.index.n_memtable >= self.memtable_docs:
                self.seal(trace=trace)
                if self.auto_compact:
                    self.maybe_compact(trace=trace)
            self._metrics.observe_state(self)
            return doc_id

    def delete(self, doc_id: int, trace: Optional[Trace] = None) -> bool:
        """Delete a live document; False (and no WAL write, no metric
        double-count) if it is unknown or already deleted."""
        self._require_writable()
        with self._lock, maybe_span(trace, "ingest_delete"):
            if doc_id not in self.corpus:
                return False
            self._wal_append({"op": "del", "id": doc_id})
            self.corpus.remove(doc_id)
            if not self.index.delete(doc_id):
                raise InternalError(
                    f"doc {doc_id} was in the corpus but not the index"
                )
            self._metrics.deletes.inc()
            self._metrics.observe_state(self)
            return True

    def seal(self, trace: Optional[Trace] = None) -> Optional[str]:
        """Seal the memtable into an immutable segment image.

        Returns the new image's file name, or None when the memtable is
        empty.  Decomposed into image write + manifest commit so the
        crash-recovery tests can stop between the two steps.
        """
        self._require_writable()
        with self._lock, maybe_span(trace, "ingest_seal") as span:
            memtable_ids = sorted(self.index.memtable)
            if not memtable_ids:
                return None
            units = [self.corpus.get(doc_id) for doc_id in memtable_ids]
            name, gram_index = self._write_segment_image(units)
            self._commit_seal(name, memtable_ids, gram_index)
            if span is not None:
                span.attrs["segment"] = name
                span.attrs["n_docs"] = len(memtable_ids)
            return name

    def _write_segment_image(
        self, units: Sequence[DataUnit]
    ) -> Tuple[str, GramIndex]:
        """Build + durably write one segment image; returns its file
        name and the mmap-loaded index.  Does NOT touch the manifest:
        until the commit step runs, the image is an orphan that
        recovery garbage-collects."""
        if not units:
            raise InternalError("cannot write an empty segment image")
        local = InMemoryCorpus([
            DataUnit(i, unit.text, unit.url)
            for i, unit in enumerate(units)
        ])
        gram_index = self.index.builder.build(local)
        name = segment_file_name(self._next_segment_id)
        self._next_segment_id += 1
        image = os.path.join(self.path, name)
        save_index(gram_index, image)
        with open(image, "rb") as out:
            os.fsync(out.fileno())
        self.disk.charge_write(os.path.getsize(image))
        self._metrics.image_bytes.inc(os.path.getsize(image))
        return name, load_index(image)

    def _commit_seal(
        self,
        name: str,
        memtable_ids: Sequence[int],
        gram_index: GramIndex,
    ) -> None:
        """Swap the manifest to include the new segment, then mount it.

        The WAL is fsynced first: after the swap the manifest asserts
        these docs are sealed, so their add records must be durable."""
        self._wal_fsync()
        manifest = self._current_manifest()
        manifest.generation += 1
        manifest.segments.append(
            SegmentRecord(name=name, doc_ids=list(memtable_ids))
        )
        write_manifest(self.path, manifest)
        self._generation = manifest.generation
        segment = self.index.seal_segment(memtable_ids, gram_index)
        segment.file_name = name
        self._metrics.seals.inc()
        self._metrics.observe_state(self)

    def maybe_compact(self, trace: Optional[Trace] = None) -> int:
        """Run the tiered policy: while any size class (by
        ``floor(log_fanout(n_live))``) holds >= ``fanout`` segments,
        rewrite that class into one segment.  Returns merges done."""
        self._require_writable()
        merges = 0
        with self._lock:
            while True:
                tiers: Dict[int, List[Segment]] = {}
                for segment in self.index.segments:
                    tier = int(
                        math.log(max(segment.n_live, 1), self.fanout)
                    )
                    tiers.setdefault(tier, []).append(segment)
                crowded = [
                    members for members in tiers.values()
                    if len(members) >= self.fanout
                ]
                if not crowded:
                    return merges
                # Compact the smallest crowded tier first: cheapest
                # rewrite, and its output may cascade upward.
                victims = min(
                    crowded, key=lambda members: sum(
                        segment.n_live for segment in members
                    )
                )
                self._merge(victims, trace=trace)
                merges += 1

    def compact(self, trace: Optional[Trace] = None) -> int:
        """Full compaction: seal the memtable, merge every segment into
        one, and checkpoint the WAL down to the surviving documents.
        Returns the number of segments merged away."""
        self._require_writable()
        with self._lock, maybe_span(trace, "ingest_compact"):
            self.seal(trace=trace)
            victims = list(self.index.segments)
            merged = 0
            if len(victims) > 1 or any(s.deleted for s in victims):
                self._merge(victims, trace=trace)
                merged = len(victims)
            self._checkpoint_wal()
            self.corpus.purge_graveyard()
            self._metrics.observe_state(self)
            return merged

    def _merge(
        self, victims: Sequence[Segment], trace: Optional[Trace] = None
    ) -> None:
        """Rewrite ``victims`` into one segment, dropping tombstones.

        Queries never block: they iterate the snapshot they took, and
        victim images are unlinked only after the manifest swap — an
        unlinked mmap stays valid until the last reader drops it."""
        if not victims:
            return
        with maybe_span(
            trace, "ingest_merge", n_segments=len(victims)
        ):
            live_ids = sorted(
                gid for segment in victims
                for gid in segment.live_global_ids()
            )
            units = [self.corpus.get(gid) for gid in live_ids]
            dropped = sum(len(segment.deleted) for segment in victims)
            if units:
                name, gram_index = self._write_segment_image(units)
            else:
                name, gram_index = None, None
            self._commit_merge(victims, name, live_ids, gram_index)
            self._metrics.compactions.inc()
            self._metrics.merged_segments.inc(len(victims))
            if dropped:
                self._metrics.tombstones_dropped.inc(dropped)

    def _commit_merge(
        self,
        victims: Sequence[Segment],
        name: Optional[str],
        live_ids: Sequence[int],
        gram_index: Optional[GramIndex],
    ) -> None:
        """Manifest swap for a merge, then unlink the victim images."""
        victim_names = self._names_of(victims)
        victim_ids = set(map(id, victims))
        manifest = self._current_manifest()
        manifest.generation += 1
        manifest.segments = [
            record for record in manifest.segments
            if record.name not in victim_names
        ]
        # Victims' tombstones die with them (their docs were dropped
        # from the rewrite); survivors keep theirs.
        manifest.tombstones = sorted(
            gid for segment in self.index.segments
            if id(segment) not in victim_ids
            for gid in segment.deleted
        )
        if name is not None:
            manifest.segments.append(
                SegmentRecord(name=name, doc_ids=list(live_ids))
            )
        write_manifest(self.path, manifest)
        self._generation = manifest.generation
        segment = self.index.replace_segments(
            victims, live_ids, gram_index
        )
        if segment is not None:
            segment.file_name = name
        for victim_name in sorted(victim_names):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(self.path, victim_name))
        self._metrics.observe_state(self)

    def _checkpoint_wal(self) -> None:
        """Rewrite the WAL to just the surviving documents' add
        records (sealed docs first, then the memtable).  The old log is
        intact until the atomic replace, so a crash at any point
        replays to the same state."""
        if self._wal is None:
            raise InternalError("checkpoint on a read-only directory")
        wal = os.path.join(self.path, WAL_NAME)
        tmp = wal + ".tmp"
        with open(tmp, "w", encoding="utf-8") as out:
            for unit in self.corpus:
                out.write(json.dumps(
                    {
                        "op": "add", "id": unit.doc_id,
                        "text": unit.text, "url": unit.url,
                    },
                    sort_keys=True,
                ) + "\n")
            out.flush()
            os.fsync(out.fileno())
        self._wal.close()
        self._wal = None  # if the replace fails, close() stays safe
        os.replace(tmp, wal)
        _fsync_dir(self.path)
        self._wal = open(wal, "a", encoding="utf-8")

    # -- log-file ingestion (free ingest <dir> --log ...) ------------------

    def ingest_log(
        self,
        log_path: str,
        follow: bool = False,
        poll_seconds: float = 0.2,
        max_polls: Optional[int] = None,
        trace: Optional[Trace] = None,
    ) -> Tuple[int, int]:
        """Ingest a line-per-doc log file; returns (added, deleted).

        Each complete line is one document, except ``!delete <id>``
        directives which tombstone a previous document.  The byte
        offset reached is persisted in the manifest per source path, so
        re-running resumes where the last run stopped instead of
        double-ingesting.  With ``follow=True``, polls for growth until
        ``max_polls`` empty polls (forever when None) — the CLI maps
        Ctrl-C onto a clean stop.
        """
        self._require_writable()
        source = os.path.abspath(log_path)
        added = deleted = 0
        empty_polls = 0
        offset = self._source_offsets.get(source, 0)
        while True:
            with open(source, "r", encoding="utf-8") as infile:
                infile.seek(offset)
                while True:
                    line = infile.readline()
                    if not line.endswith("\n"):
                        break  # incomplete tail: re-read next poll
                    offset = infile.tell()
                    text = line[:-1]
                    if not text:
                        continue
                    directive = self._parse_delete_directive(text)
                    if directive is not None:
                        if self.delete(directive, trace=trace):
                            deleted += 1
                    else:
                        self.add(text, trace=trace)
                        added += 1
            progressed = offset != self._source_offsets.get(source, 0)
            if progressed:
                with self._lock:
                    self._source_offsets[source] = offset
                    self._persist_offsets()
                empty_polls = 0
            if not follow:
                break
            if not progressed:
                empty_polls += 1
                if max_polls is not None and empty_polls >= max_polls:
                    break
            time.sleep(poll_seconds)
        return added, deleted

    @staticmethod
    def _parse_delete_directive(text: str) -> Optional[int]:
        parts = text.split()
        if len(parts) == 2 and parts[0] == DELETE_DIRECTIVE:
            try:
                return int(parts[1])
            except ValueError:
                return None
        return None

    def _persist_offsets(self) -> None:
        manifest = self._current_manifest()
        manifest.generation += 1
        write_manifest(self.path, manifest)
        self._generation = manifest.generation
        self._metrics.observe_state(self)

    # -- shared internals --------------------------------------------------

    def _current_manifest(self) -> Manifest:
        """The manifest matching current in-memory state (the caller
        mutates it, bumps the generation, and writes it)."""
        records = []
        for segment in self.index.segments:
            if segment.file_name is None:
                raise InternalError("sealed segment without a file name")
            records.append(
                SegmentRecord(
                    name=segment.file_name,
                    doc_ids=list(segment.global_ids),
                )
            )
        tombstones = sorted(
            gid for segment in self.index.segments
            for gid in segment.deleted
        )
        return Manifest(
            generation=self._generation,
            next_doc_id=self._next_doc_id,
            next_segment_id=self._next_segment_id,
            segments=records,
            tombstones=tombstones,
            source_offsets=dict(self._source_offsets),
        )

    def _names_of(self, segments: Sequence[Segment]) -> Set[str]:
        names = set()
        for segment in segments:
            if segment.file_name is None:
                raise InternalError("sealed segment without a file name")
            names.add(segment.file_name)
        return names

    def _wal_append(self, record: Dict[str, object]) -> None:
        if self._wal is None:
            raise InternalError("WAL write on a read-only directory")
        self._wal.write(json.dumps(record, sort_keys=True) + "\n")
        self._wal.flush()

    def _wal_fsync(self) -> None:
        if self._wal is None:
            raise InternalError("WAL fsync on a read-only directory")
        os.fsync(self._wal.fileno())

    def _require_writable(self) -> None:
        if self.read_only:
            raise IngestError(
                f"{self.path!r} is open read-only"
            )

    # -- introspection -----------------------------------------------------

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def epoch(self) -> int:
        return self.index.epoch

    def stats(self) -> Dict[str, int]:
        return {
            "generation": self._generation,
            "epoch": self.index.epoch,
            "n_segments": len(self.index.segments),
            "n_memtable": self.index.n_memtable,
            "n_live": self.index.n_total_live,
            "n_tombstones": self.index.n_deleted,
            "next_doc_id": self._next_doc_id,
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Flush and close the WAL handle (read-only directories hold
        no resources).  The manifest is already durable — every state
        change wrote one before acknowledging."""
        if self._wal is not None:
            self._wal.flush()
            self._wal.close()
            self._wal = None

    def __enter__(self) -> "IngestDirectory":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        mode = "ro" if self.read_only else "rw"
        return (
            f"IngestDirectory({self.path!r}, {mode}, "
            f"gen {self._generation}, {self.stats()['n_segments']} "
            f"segments)"
        )


class _IngestMetrics:
    """``free_ingest_*`` registry families (all unlabeled; bounded)."""

    def __init__(self, registry: MetricsRegistry):
        self.docs = registry.counter(
            "free_ingest_docs_total", "Documents ingested."
        ).unlabeled()
        self.deletes = registry.counter(
            "free_ingest_deletes_total", "Documents deleted."
        ).unlabeled()
        self.seals = registry.counter(
            "free_ingest_seals_total", "Memtable seals into segments."
        ).unlabeled()
        self.compactions = registry.counter(
            "free_ingest_compactions_total", "Segment merge operations."
        ).unlabeled()
        self.merged_segments = registry.counter(
            "free_ingest_merged_segments_total",
            "Segments rewritten away by compaction.",
        ).unlabeled()
        self.tombstones_dropped = registry.counter(
            "free_ingest_tombstones_dropped_total",
            "Tombstoned documents purged by compaction.",
        ).unlabeled()
        self.orphans_gc = registry.counter(
            "free_ingest_orphans_gc_total",
            "Orphaned segment images removed on reopen.",
        ).unlabeled()
        self.image_bytes = registry.counter(
            "free_ingest_image_bytes_written_total",
            "Bytes of segment images written (seals + compactions).",
        ).unlabeled()
        self.segments = registry.gauge(
            "free_ingest_segments", "Live sealed segments."
        ).unlabeled()
        self.memtable = registry.gauge(
            "free_ingest_memtable_docs", "Documents in the memtable."
        ).unlabeled()
        self.tombstones = registry.gauge(
            "free_ingest_tombstones", "Live tombstones awaiting compaction."
        ).unlabeled()
        self.generation = registry.gauge(
            "free_ingest_generation", "Current manifest generation."
        ).unlabeled()

    def observe_state(self, directory: "IngestDirectory") -> None:
        self.segments.set(len(directory.index.segments))
        self.memtable.set(directory.index.n_memtable)
        self.tombstones.set(directory.index.n_deleted)
        self.generation.set(directory.generation)
