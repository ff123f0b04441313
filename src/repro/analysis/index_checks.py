"""Index invariant analysis: prove the paper's structural guarantees.

Checks a built :class:`~repro.index.multigram.GramIndex` (or a
:class:`~repro.index.segmented.SegmentedGramIndex`) against every
statically decidable invariant the planner and executor rely on:

===========  ==========================================================
code         invariant (paper reference)
===========  ==========================================================
IDX001       key set is prefix-free (Thm 3.9)
IDX002       total postings <= corpus chars (Obs 3.8)
IDX003       presuf key set is suffix-free (Def 3.11 / Obs 3.13)
IDX004       presuf key set is its own shell — shortest common suffix
             rule, shell uniqueness (Obs 3.13/3.14)
IDX005       postings ids sorted, duplicate-free, in [0, n_docs)
IDX006       postings header count matches decoded payload
IDX007       key with empty postings (useful grams occur somewhere)
IDX008       stats bookkeeping matches the directory
IDX009       directory trie agrees with the postings key set
IDX010       FREEIDX2 skip tables are self-consistent (block counts
             and byte lengths sum to the directory entry; every block
             decodes to its declared count)
IDX011       FREEIDX2 block first ids strictly increase and blocks do
             not overlap once decoded
IDX012       FREEIDX2 directory-declared postings <= corpus chars
             (Obs 3.8 proven from the directory alone, no decode)
SEG001       global doc ids unique across segments
SEG002       routing table == union of segment ids
SEG003       tombstones are ids the segment actually holds
SEG004       segment id count == its index's n_docs
SEG005       epoch covers every recorded mutation
SEG006       ingest manifest consistent and generation-monotone (the
             on-disk manifest matches the mounted segments, the epoch
             dominates the generation, and next ids cover every
             recorded doc/segment id)
SEG007       memtable doc ids disjoint from sealed segments, and the
             live corpus is exactly sealed-live + memtable
SEG008       tombstones only reference known sealed ids (never the
             memtable, never unknown docs)
SHD001       shard ranges are disjoint, contiguous, and tile the corpus
SHD002       per-shard postings <= shard corpus chars (Obs 3.8 locally)
SHD003       summed shard stats == whole-corpus stats
===========  ==========================================================

All checks are read-only and run without executing any query.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.analysis.findings import Finding, Severity, make_finding
from repro.index.multigram import GramIndex
from repro.index.postings import BlockedPostingsList
from repro.index.presuf import (
    presuf_shell,
    prefix_violations,
    suffix_violations,
)
from repro.index.segmented import SegmentedGramIndex
from repro.index.serialize import MappedGramIndex
from repro.index.sharded import ShardedIndex

if TYPE_CHECKING:  # runtime import stays deferred (layering)
    from repro.index.ingest import IngestDirectory

#: Cap on per-invariant witnesses so a badly broken index stays readable.
MAX_WITNESSES = 5


def check_key_set(
    keys: Iterable[str], kind: str, subject: str = "index"
) -> List[Finding]:
    """Directory-level invariants of a key set of the given index kind.

    Prefix-freeness applies to the multigram selection (Theorem 3.9
    proves the minimal-useful-gram miner emits a prefix-free set); a
    Complete index unions several gram lengths and is prefix-nested by
    design, so IDX001 is skipped for ``kind="complete"``.
    """
    findings: List[Finding] = []
    key_list = list(keys)
    if kind in ("multigram", "presuf"):
        for prefix, extension in prefix_violations(key_list)[:MAX_WITNESSES]:
            findings.append(make_finding(
                "IDX001",
                f"key {prefix!r} is a proper prefix of key {extension!r}; "
                f"the minimal useful gram set must be prefix-free",
                paper_ref="Thm 3.9",
                subject=subject,
                location=repr(extension),
            ))
    if kind == "presuf":
        for suffix, extension in suffix_violations(key_list)[:MAX_WITNESSES]:
            findings.append(make_finding(
                "IDX003",
                f"key {suffix!r} is a proper suffix of key {extension!r}; "
                f"a presuf shell must be suffix-free",
                paper_ref="Def 3.11 / Obs 3.13",
                subject=subject,
                location=repr(extension),
            ))
        shell = presuf_shell(key_list)
        extra = sorted(set(key_list) - shell)
        if extra:
            witnesses = ", ".join(repr(k) for k in extra[:MAX_WITNESSES])
            findings.append(make_finding(
                "IDX004",
                f"{len(extra)} key(s) are not in the presuf shell of the "
                f"key set (shortest common suffix rule violated; the "
                f"shell is unique): {witnesses}",
                paper_ref="Obs 3.13/3.14",
                subject=subject,
            ))
    return findings


def check_gram_index(
    index: GramIndex,
    corpus_chars: Optional[int] = None,
    subject: Optional[str] = None,
) -> List[Finding]:
    """Every statically checkable invariant of one gram index."""
    name = subject if subject is not None else f"{index.kind} index"
    findings = check_key_set(index.keys(), index.kind, subject=name)
    findings.extend(_check_postings(index, name))
    findings.extend(_check_blocked_postings(index, name))
    findings.extend(_check_stats(index, name))
    findings.extend(_check_directory(index, name))

    chars = corpus_chars
    if chars is None:
        chars = index.stats.corpus_chars or None
    if chars and index.kind in ("multigram", "presuf"):
        total = sum(len(plist) for _key, plist in index.items())
        if total > chars:
            if isinstance(index, MappedGramIndex):
                # v2 images: the bound is provable from the directory
                # entry counts alone — it holds (or fails) even on an
                # image whose payloads no longer decode.
                findings.append(make_finding(
                    "IDX012",
                    f"v2 directory declares {total} postings but the "
                    f"corpus holds {chars} chars; a prefix-free key "
                    f"set admits at most one posting-occurrence per "
                    f"text position",
                    paper_ref="Obs 3.8",
                    subject=name,
                ))
            else:
                findings.append(make_finding(
                    "IDX002",
                    f"total postings {total} exceeds corpus size {chars} "
                    f"chars; a prefix-free key set admits at most one "
                    f"posting-occurrence per text position",
                    paper_ref="Obs 3.8",
                    subject=name,
                ))
    return findings


def _check_postings(index: GramIndex, subject: str) -> List[Finding]:
    findings: List[Finding] = []
    reported = 0
    for key, plist in index.items():
        if reported >= MAX_WITNESSES:
            break
        try:
            ids = plist.ids()
        except ValueError as exc:
            findings.append(make_finding(
                "IDX006",
                f"postings for key {key!r} fail to decode: {exc}",
                paper_ref="§5.2",
                subject=subject,
                location=repr(key),
            ))
            reported += 1
            continue
        if len(ids) != len(plist):
            findings.append(make_finding(
                "IDX006",
                f"postings for key {key!r}: header count {len(plist)} "
                f"!= decoded count {len(ids)}",
                paper_ref="§5.2",
                subject=subject,
                location=repr(key),
            ))
            reported += 1
            continue
        if any(b <= a for a, b in zip(ids, ids[1:])):
            findings.append(make_finding(
                "IDX005",
                f"postings for key {key!r} are not strictly increasing",
                paper_ref="§5.2",
                subject=subject,
                location=repr(key),
            ))
            reported += 1
            continue
        if ids and (ids[0] < 0 or ids[-1] >= index.n_docs):
            findings.append(make_finding(
                "IDX005",
                f"postings for key {key!r} contain doc ids outside "
                f"[0, {index.n_docs}): {ids[0]}..{ids[-1]}",
                paper_ref="§5.2",
                subject=subject,
                location=repr(key),
            ))
            reported += 1
            continue
        if not ids:
            findings.append(make_finding(
                "IDX007",
                f"key {key!r} has empty postings — a useful gram has "
                f"sel > 0, so it occurs in at least one data unit",
                paper_ref="Def 3.4",
                severity=Severity.WARNING,
                subject=subject,
                location=repr(key),
            ))
            reported += 1
    return findings


def _check_blocked_postings(
    index: GramIndex, subject: str
) -> List[Finding]:
    """FREEIDX2 invariants: the skip tables the streaming intersection
    kernel trusts for block skipping (IDX010/IDX011).

    The v2 loader is O(1) and defers per-entry validation to this
    analyzer, so these checks are the offline proof that block
    skipping cannot drop candidates: counts/byte-lengths must tile the
    entry (IDX010), every block must decode to its declared count
    (IDX010), and block first ids must strictly increase with no
    decoded overlap across block boundaries (IDX011) — otherwise
    ``next_geq`` could jump past a block that held a match.
    """
    findings: List[Finding] = []
    reported = 0
    for key, plist in index.items():
        if reported >= MAX_WITNESSES:
            break
        if not isinstance(plist, BlockedPostingsList):
            continue
        if not plist.has_skip_table:
            # Flat form: the stored payload *is* the flat encoding, so
            # the two byte accounts must agree exactly.
            if plist.nbytes != plist.blocked_nbytes:
                findings.append(make_finding(
                    "IDX010",
                    f"flat blocked postings for key {key!r}: stored "
                    f"payload is {plist.blocked_nbytes}B but the "
                    f"directory claims {plist.nbytes}B",
                    paper_ref="§5.2",
                    subject=subject,
                    location=repr(key),
                ))
                reported += 1
            continue
        table = plist.block_table
        counts_sum = sum(n_ids for _first, n_ids, _nb in table)
        if counts_sum != len(plist):
            findings.append(make_finding(
                "IDX010",
                f"skip table for key {key!r} sums to {counts_sum} ids "
                f"but the directory entry says {len(plist)}",
                paper_ref="§5.2",
                subject=subject,
                location=repr(key),
            ))
            reported += 1
            continue
        if any(n_ids == 0 for _first, n_ids, _nb in table):
            findings.append(make_finding(
                "IDX010",
                f"skip table for key {key!r} declares an empty block",
                paper_ref="§5.2",
                subject=subject,
                location=repr(key),
            ))
            reported += 1
            continue
        firsts = [first for first, _n, _nb in table]
        if any(b <= a for a, b in zip(firsts, firsts[1:])):
            findings.append(make_finding(
                "IDX011",
                f"block first ids for key {key!r} are not strictly "
                f"increasing; next_geq could skip a block holding a "
                f"candidate",
                paper_ref="§5.2",
                subject=subject,
                location=repr(key),
            ))
            reported += 1
            continue
        previous_last = None
        for i in range(plist.n_blocks):
            try:
                ids = plist.block_ids(i)
            except ValueError as exc:
                findings.append(make_finding(
                    "IDX010",
                    f"block {i} of key {key!r} fails to decode: {exc}",
                    paper_ref="§5.2",
                    subject=subject,
                    location=repr(key),
                ))
                reported += 1
                break
            if previous_last is not None and ids and ids[0] <= previous_last:
                findings.append(make_finding(
                    "IDX011",
                    f"blocks {i - 1} and {i} of key {key!r} overlap "
                    f"once decoded ({previous_last} >= {ids[0]})",
                    paper_ref="§5.2",
                    subject=subject,
                    location=repr(key),
                ))
                reported += 1
                break
            if ids:
                previous_last = ids[-1]
    return findings


def _check_stats(index: GramIndex, subject: str) -> List[Finding]:
    findings: List[Finding] = []
    stats = index.stats
    if stats.n_keys != len(index):
        findings.append(make_finding(
            "IDX008",
            f"stats.n_keys={stats.n_keys} but the directory holds "
            f"{len(index)} keys",
            severity=Severity.WARNING,
            subject=subject,
        ))
    total = sum(len(plist) for _key, plist in index.items())
    if stats.n_postings != total:
        findings.append(make_finding(
            "IDX008",
            f"stats.n_postings={stats.n_postings} but postings lists "
            f"sum to {total}",
            severity=Severity.WARNING,
            subject=subject,
        ))
    return findings


def _check_directory(index: GramIndex, subject: str) -> List[Finding]:
    """The trie and the postings dict must describe the same key set."""
    findings: List[Finding] = []
    trie_keys = set(index.trie.iter_keys())
    dict_keys = set(index.keys())
    if trie_keys != dict_keys:
        missing = sorted(dict_keys - trie_keys)[:MAX_WITNESSES]
        extra = sorted(trie_keys - dict_keys)[:MAX_WITNESSES]
        findings.append(make_finding(
            "IDX009",
            f"directory trie and postings disagree "
            f"(missing from trie: {missing}, extra in trie: {extra})",
            paper_ref="§5.2",
            subject=subject,
        ))
    return findings


def check_segmented_index(
    seg_index: SegmentedGramIndex,
    corpus_chars: Optional[int] = None,
) -> List[Finding]:
    """Segment/epoch bookkeeping plus per-segment index invariants."""
    findings: List[Finding] = []
    seen_ids = {}
    n_tombstones = 0
    for position, segment in enumerate(seg_index.segments):
        subject = f"segment[{position}]"
        for gid in segment.global_ids:
            if gid in seen_ids:
                findings.append(make_finding(
                    "SEG001",
                    f"doc id {gid} appears in both "
                    f"segment[{seen_ids[gid]}] and {subject}",
                    subject=subject,
                ))
            else:
                seen_ids[gid] = position
        ghost = segment.deleted - set(segment.global_ids)
        if ghost:
            findings.append(make_finding(
                "SEG003",
                f"tombstones for ids the segment does not hold: "
                f"{sorted(ghost)[:MAX_WITNESSES]}",
                subject=subject,
            ))
        n_tombstones += len(segment.deleted)
        if len(segment.global_ids) != segment.index.n_docs:
            findings.append(make_finding(
                "SEG004",
                f"segment holds {len(segment.global_ids)} ids but its "
                f"index was built over {segment.index.n_docs} docs",
                subject=subject,
            ))
        findings.extend(check_gram_index(
            segment.index,
            corpus_chars=None,
            subject=f"{subject} ({segment.index.kind})",
        ))

    routed = seg_index.segment_assignments()
    if set(routed) != set(seen_ids):
        missing = sorted(set(seen_ids) - set(routed))[:MAX_WITNESSES]
        extra = sorted(set(routed) - set(seen_ids))[:MAX_WITNESSES]
        findings.append(make_finding(
            "SEG002",
            f"routing table out of sync with segments "
            f"(unrouted ids: {missing}, dangling routes: {extra})",
            subject="segmented index",
        ))
    else:
        misrouted = [
            gid for gid, segment in routed.items()
            if seg_index.segments[seen_ids[gid]] is not segment
        ]
        if misrouted:
            findings.append(make_finding(
                "SEG002",
                f"{len(misrouted)} doc id(s) routed to the wrong "
                f"segment: {sorted(misrouted)[:MAX_WITNESSES]}",
                subject="segmented index",
            ))

    floor = len(seg_index.segments) + n_tombstones
    if seg_index.epoch < floor:
        findings.append(make_finding(
            "SEG005",
            f"epoch {seg_index.epoch} < {floor} recorded mutations "
            f"({len(seg_index.segments)} segments + {n_tombstones} "
            f"tombstones); some mutation skipped its epoch bump, so "
            f"answer caches may serve stale results",
            subject="segmented index",
        ))
    return findings


def check_ingest_directory(directory: "IngestDirectory") -> List[Finding]:
    """Ingest lifecycle invariants (SEG006..SEG008) plus the full
    segmented battery (SEG001..SEG005 and per-segment IDX checks) over
    the mounted view.

    The manifest is the durable source of truth, so most checks compare
    the open directory's in-memory state against a fresh read of the
    on-disk manifest: any disagreement means a crash at that moment
    would recover a different view than the one being served.
    """
    from repro.index.ingest import read_manifest

    findings = check_segmented_index(directory.index, corpus_chars=None)
    subject = "ingest directory"
    manifest = read_manifest(directory.path)
    if manifest is None:
        findings.append(make_finding(
            "SEG006",
            f"{directory.path!r} has no manifest on disk; a reopen "
            "would recover nothing",
            subject=subject,
        ))
        return findings

    # SEG006: generation monotonicity and manifest/memory agreement.
    if manifest.generation != directory.generation:
        findings.append(make_finding(
            "SEG006",
            f"on-disk manifest generation {manifest.generation} != "
            f"open directory generation {directory.generation}; a "
            "manifest swap was lost or torn",
            subject=subject,
        ))
    if directory.epoch < directory.generation:
        findings.append(make_finding(
            "SEG006",
            f"epoch {directory.epoch} < generation "
            f"{directory.generation}: a reopened directory could "
            "collide with the previous incarnation's cache keys",
            subject=subject,
        ))
    mounted = {
        segment.file_name: list(segment.global_ids)
        for segment in directory.index.segments
    }
    recorded = {
        record.name: list(record.doc_ids) for record in manifest.segments
    }
    if mounted != recorded:
        only_mounted = sorted(set(mounted) - set(recorded))
        only_recorded = sorted(set(recorded) - set(mounted))
        findings.append(make_finding(
            "SEG006",
            f"mounted segments disagree with the manifest "
            f"(mounted-only: {only_mounted[:MAX_WITNESSES]}, "
            f"manifest-only: {only_recorded[:MAX_WITNESSES]})",
            subject=subject,
        ))
    sealed = {
        gid for record in manifest.segments for gid in record.doc_ids
    }
    memtable_ids = set(directory.index.memtable)
    known = sealed | memtable_ids | set(manifest.tombstones)
    over = sorted(
        gid for gid in known if gid >= manifest.next_doc_id
    )
    if over:
        findings.append(make_finding(
            "SEG006",
            f"doc ids at/past next_doc_id {manifest.next_doc_id}: "
            f"{over[:MAX_WITNESSES]}; a future add would reuse a "
            "live id",
            subject=subject,
        ))

    # SEG007: the memtable and the sealed segments partition the view.
    overlap = sorted(memtable_ids & sealed)
    if overlap:
        findings.append(make_finding(
            "SEG007",
            f"doc ids in both the memtable and a sealed segment: "
            f"{overlap[:MAX_WITNESSES]}; queries would double-count "
            "them",
            subject=subject,
        ))
    live_sealed = {
        gid for segment in directory.index.segments
        for gid in segment.live_global_ids()
    }
    expected_corpus = live_sealed | memtable_ids
    actual_corpus = {unit.doc_id for unit in directory.corpus}
    if expected_corpus != actual_corpus:
        missing = sorted(expected_corpus - actual_corpus)
        extra = sorted(actual_corpus - expected_corpus)
        findings.append(make_finding(
            "SEG007",
            f"live corpus out of sync with the index "
            f"(index-only ids: {missing[:MAX_WITNESSES]}, "
            f"corpus-only ids: {extra[:MAX_WITNESSES]})",
            subject=subject,
        ))

    # SEG008: tombstones reference known sealed docs only.
    unknown = sorted(set(manifest.tombstones) - sealed)
    if unknown:
        findings.append(make_finding(
            "SEG008",
            f"manifest tombstones referencing no sealed doc: "
            f"{unknown[:MAX_WITNESSES]}",
            subject=subject,
        ))
    in_memtable = sorted(set(manifest.tombstones) & memtable_ids)
    if in_memtable:
        findings.append(make_finding(
            "SEG008",
            f"manifest tombstones naming memtable docs: "
            f"{in_memtable[:MAX_WITNESSES]} (memtable deletes must "
            "drop the doc, not tombstone it)",
            subject=subject,
        ))
    return findings


def check_sharded_index(
    sharded: ShardedIndex,
    corpus_chars: Optional[int] = None,
) -> List[Finding]:
    """Partition invariants (SHD001..SHD003) plus per-shard index checks.

    A FREESHRD image records only each shard's doc range, and its
    shards address the corpus by dense global id, so the partition
    must be a disjoint, contiguous tiling of ``[0, n_docs)`` in shard
    order (SHD001) — otherwise a shard's local ids map to the wrong
    documents.  Obs 3.8 must also hold *per shard* (SHD002),
    since each shard is a self-contained prefix-free index over its own
    slice of the corpus, and the per-shard stats must sum to the
    whole-corpus figures (SHD003) so capacity planning on shard stats
    is trustworthy.
    """
    findings: List[Finding] = []

    # SHD001: the ranges tile [0, n_docs) in shard order — no gap, no
    # overlap, no reordering.  (The constructor validates this too; the
    # analyzer re-proves it so tampered or hand-built objects are caught.)
    expected_next = 0
    for position, shard in enumerate(sharded.shards):
        subject = f"shard[{position}]"
        ids = shard.global_ids
        expected = list(range(expected_next, expected_next + len(ids)))
        if ids != expected:
            witnesses = [
                gid for gid, want in zip(ids, expected) if gid != want
            ][:MAX_WITNESSES]
            findings.append(make_finding(
                "SHD001",
                f"shard ids are not the contiguous range "
                f"[{expected_next}, {expected_next + len(ids)}) — an "
                f"image's doc ranges only map local ids to the right "
                f"documents for a contiguous tiling (first deviating "
                f"ids: {witnesses})",
                subject=subject,
            ))
        expected_next += len(ids)

        # SHD002: Obs 3.8 holds shard-locally against the shard's own
        # recorded corpus slice size.
        stats = shard.index.stats
        if stats.corpus_chars and shard.index.kind in (
            "multigram", "presuf"
        ):
            total = sum(len(plist) for _k, plist in shard.index.items())
            if total > stats.corpus_chars:
                findings.append(make_finding(
                    "SHD002",
                    f"shard postings {total} exceed the shard's corpus "
                    f"slice of {stats.corpus_chars} chars; Obs 3.8 "
                    f"bounds every prefix-free shard independently",
                    paper_ref="Obs 3.8",
                    subject=subject,
                ))

        if len(shard.global_ids) != shard.index.n_docs:
            findings.append(make_finding(
                "SHD001",
                f"shard holds {len(shard.global_ids)} ids but its index "
                f"was built over {shard.index.n_docs} docs",
                subject=subject,
            ))

        findings.extend(check_gram_index(
            shard.index,
            corpus_chars=None,
            subject=f"{subject} ({shard.index.kind})",
        ))

    # SHD003: per-shard stats must sum to the whole-corpus figures.
    summed_docs = sum(s.index.stats.n_docs for s in sharded.shards)
    if summed_docs != sharded.n_docs:
        findings.append(make_finding(
            "SHD003",
            f"shard stats record {summed_docs} docs in total but the "
            f"partition covers {sharded.n_docs}",
            subject="sharded index",
        ))
    summed_postings = sum(
        s.index.stats.n_postings for s in sharded.shards
    )
    actual_postings = sum(
        len(plist)
        for s in sharded.shards
        for _key, plist in s.index.items()
    )
    if summed_postings != actual_postings:
        findings.append(make_finding(
            "SHD003",
            f"shard stats record {summed_postings} postings in total "
            f"but the shards actually hold {actual_postings}",
            subject="sharded index",
        ))
    if corpus_chars is not None:
        summed_chars = sum(
            s.index.stats.corpus_chars for s in sharded.shards
        )
        if summed_chars != corpus_chars:
            findings.append(make_finding(
                "SHD003",
                f"shard stats record {summed_chars} corpus chars in "
                f"total but the corpus holds {corpus_chars}",
                subject="sharded index",
            ))
    return findings
