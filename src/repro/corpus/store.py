"""Corpus stores: in-memory and disk-backed collections of data units.

Both stores support the two access patterns FREE's runtime exercises:

* **sequential iteration** over every unit (index construction and the
  Scan baseline), and
* **random access** by doc id (reading candidate units during the
  confirmation step).

The distinction is what makes the usefulness threshold ``c`` meaningful:
"if a random access to data units on disk is 10 times slower than
sequential access, then 0.1 would be a good candidate for the value of
c" (Section 3.1).  The engines charge these two access kinds to a
:class:`repro.iomodel.diskmodel.DiskModel` so the experiments report a
hardware-independent cost alongside wall time.

The :class:`DiskCorpus` file layout is a single image::

    magic 'FREECORP' | version u32 | n_units u32 |
    offsets table: (text_offset u64, text_len u32, url_len u32) per unit |
    unit payloads: url bytes + text bytes, utf-8, concatenated

so sequential iteration is one forward read and ``get`` is one seek.
"""

from __future__ import annotations

import io
import struct
from abc import ABC, abstractmethod
from typing import Iterable, Iterator, List, Sequence

from repro.corpus.document import DataUnit
from repro.errors import CorpusError, SerializationError

_MAGIC = b"FREECORP"
_VERSION = 1
_HEADER = struct.Struct("<8sII")
_ENTRY = struct.Struct("<QII")


class CorpusStore(ABC):
    """Abstract collection of data units with dense ids ``0..N-1``."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of data units (the N of Definition 3.1)."""

    @abstractmethod
    def get(self, doc_id: int) -> DataUnit:
        """Random access to one unit; raises CorpusError on a bad id."""

    @abstractmethod
    def __iter__(self) -> Iterator[DataUnit]:
        """Sequential iteration in doc-id order."""

    @property
    @abstractmethod
    def total_chars(self) -> int:
        """Total corpus size in characters (the |D| of Obs. 3.8)."""

    def ids(self) -> range:
        return range(len(self))

    def _check_id(self, doc_id: int) -> None:
        if not 0 <= doc_id < len(self):
            raise CorpusError(
                f"doc_id {doc_id} out of range [0, {len(self)})"
            )


class InMemoryCorpus(CorpusStore):
    """A corpus held entirely in memory.

    The default store for experiments: the simulated
    :class:`~repro.iomodel.diskmodel.DiskModel` supplies the I/O cost
    accounting, so the physical medium does not matter.
    """

    def __init__(self, units: Sequence[DataUnit]):
        units = list(units)
        for expected, unit in enumerate(units):
            if unit.doc_id != expected:
                raise CorpusError(
                    f"unit at position {expected} has doc_id {unit.doc_id}; "
                    "ids must be dense and ordered"
                )
        self._units: List[DataUnit] = units
        self._total_chars = sum(len(u.text) for u in units)

    @staticmethod
    def from_texts(texts: Iterable[str]) -> "InMemoryCorpus":
        """Build from bare strings, assigning dense ids."""
        return InMemoryCorpus(
            [DataUnit(i, text) for i, text in enumerate(texts)]
        )

    def append_text(self, text: str, url: str = "") -> DataUnit:
        """Append a new unit with the next dense id (incremental
        ingestion for the segmented index)."""
        unit = DataUnit(len(self._units), text, url)
        self._units.append(unit)
        self._total_chars += len(text)
        return unit

    def __len__(self) -> int:
        return len(self._units)

    def get(self, doc_id: int) -> DataUnit:
        self._check_id(doc_id)
        return self._units[doc_id]

    def __iter__(self) -> Iterator[DataUnit]:
        return iter(self._units)

    @property
    def total_chars(self) -> int:
        return self._total_chars

    def __repr__(self) -> str:
        return (
            f"InMemoryCorpus({len(self)} units, {self.total_chars} chars)"
        )


class DiskCorpus(CorpusStore):
    """A corpus stored in a single on-disk image, opened read-only.

    ``get`` performs one seek + one read; iteration streams the payload
    region forward.  Use :meth:`save` to build the image from any other
    store.
    """

    def __init__(self, path: str):
        self._path = path
        try:
            self._file = open(path, "rb")
        except OSError as exc:
            raise CorpusError(f"cannot open corpus image {path!r}: {exc}")
        self._entries: List[tuple] = []
        self._total_chars = 0
        self._load_directory()

    def _load_directory(self) -> None:
        header = self._file.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise SerializationError(f"{self._path!r}: truncated header")
        magic, version, n_units = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise SerializationError(f"{self._path!r}: bad magic {magic!r}")
        if version != _VERSION:
            raise SerializationError(
                f"{self._path!r}: unsupported version {version}"
            )
        raw = self._file.read(_ENTRY.size * n_units)
        if len(raw) != _ENTRY.size * n_units:
            raise SerializationError(f"{self._path!r}: truncated directory")
        for i in range(n_units):
            entry = _ENTRY.unpack_from(raw, i * _ENTRY.size)
            self._entries.append(entry)
            self._total_chars += entry[1]

    @staticmethod
    def save(path: str, corpus: CorpusStore) -> None:
        """Write any store into the on-disk image format."""
        entries = []
        payload = io.BytesIO()
        base = _HEADER.size + _ENTRY.size * len(corpus)
        for unit in corpus:
            url_bytes = unit.url.encode("utf-8")
            text_bytes = unit.text.encode("utf-8")
            offset = base + payload.tell()
            entries.append((offset, len(text_bytes), len(url_bytes)))
            payload.write(url_bytes)
            payload.write(text_bytes)
        with open(path, "wb") as out:
            out.write(_HEADER.pack(_MAGIC, _VERSION, len(corpus)))
            for entry in entries:
                out.write(_ENTRY.pack(*entry))
            out.write(payload.getvalue())

    @property
    def path(self) -> str:
        """The image path (forked workers reopen it: a forked file
        descriptor shares its seek offset with the parent, so each
        process needs its own handle for race-free random access)."""
        return self._path

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, doc_id: int) -> DataUnit:
        self._check_id(doc_id)
        offset, text_len, url_len = self._entries[doc_id]
        self._file.seek(offset)
        blob = self._file.read(url_len + text_len)
        if len(blob) != url_len + text_len:
            raise SerializationError(
                f"{self._path!r}: truncated payload for unit {doc_id}"
            )
        url = blob[:url_len].decode("utf-8")
        text = blob[url_len:].decode("utf-8")
        return DataUnit(doc_id, text, url)

    def __iter__(self) -> Iterator[DataUnit]:
        for doc_id in self.ids():
            yield self.get(doc_id)

    @property
    def total_chars(self) -> int:
        # NOTE: total_chars is measured in utf-8 bytes for the disk
        # store; the synthetic corpus is ASCII so bytes == characters.
        return self._total_chars

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "DiskCorpus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DiskCorpus({self._path!r}, {len(self)} units, "
            f"{self.total_chars} chars)"
        )
