/// Binary snapshots of a Database.
///
/// The snapshot stores the feature configuration plus every relation's raw
/// series; normal forms, spectra, and R*-trees are derived data and are
/// rebuilt deterministically on load (bulk loading). The format is a
/// single-machine, native-endian snapshot -- a checkpoint/restore facility,
/// not an interchange format.
///
/// Four on-disk versions exist. SaveDatabase writes SIMQDB4 by default;
/// LoadDatabase reads all four (SIMQDB1/SIMQDB2/SIMQDB3 snapshots from
/// older builds keep loading unchanged).
///
/// Every save is atomic: the snapshot is serialized in memory, written to
/// `path + ".tmp"`, fsynced, then renamed over `path` (and the parent
/// directory fsynced). A crash at any point leaves either the old snapshot
/// or the new one -- never a truncated hybrid. On failure the temp file is
/// unlinked and the original snapshot is untouched.
///
/// SIMQDB1 layout (all integers little-endian on the machines we target):
///   magic "SIMQDB1\n"
///   i32 num_coefficients, i32 space, u8 include_mean_std
///   u64 relation_count
///   per relation:
///     u32 name_length, bytes name, i32 series_length, u64 record_count
///     per record: u32 name_length, bytes name, u64 n, n doubles (raw)
///
/// SIMQDB2 extends every relation with explicit record ids and a summary
/// statistics block, both validated on load (ids must be the dense
/// 0..count-1 sequence the engine assigns; the stats must match the values
/// recomputed from the raw series bit-for-bit):
///   magic "SIMQDB2\n"
///   i32 num_coefficients, i32 space, u8 include_mean_std
///   u64 relation_count
///   per relation:
///     u32 name_length, bytes name, i32 series_length, u64 record_count
///     f64 mean_min, f64 mean_max, f64 std_min, f64 std_max   (0s if empty)
///     per record: u64 id, u32 name_length, bytes name, u64 n, n doubles
///
/// SIMQDB3 wraps the SIMQDB2 content in checksummed, length-framed
/// sections so corruption is detected before any bytes are interpreted:
///   magic "SIMQDB3\n"
///   per section: u32 payload_length, u32 crc32(payload), payload bytes
///   section 0 payload: i32 num_coefficients, i32 space,
///                      u8 include_mean_std, u64 relation_count
///   sections 1..relation_count: one per relation, payload identical to
///                      the SIMQDB2 per-relation block above
/// A section whose framing runs past end-of-file, whose CRC does not
/// match, or whose payload has trailing bytes makes the load fail with
/// kCorruption. All load-time validation failures (any version) return
/// kCorruption; a missing file returns kNotFound; OS-level read/write
/// failures return kIoError.
///
/// SIMQDB4 keeps the SIMQDB3 section framing and appends one tombstone
/// block to every per-relation payload, after the records:
///   u64 tombstone_count, then tombstone_count u64 ids of deleted records
/// Deleted records are still serialized in full (their names stay
/// reserved); the loader bulk-loads every record and then re-deletes the
/// listed ids, so the restored database matches the saved one exactly.
/// Saving with format_version <= 3 drops tombstones (deleted records come
/// back alive) -- only do that for snapshots consumed by older builds.

#ifndef SIMQ_CORE_PERSISTENCE_H_
#define SIMQ_CORE_PERSISTENCE_H_

#include <string>

#include "core/database.h"
#include "util/status.h"

namespace simq {

// Writes a snapshot of `db` to `path` atomically (overwriting).
// `format_version` selects the on-disk layout: 4 (default, SIMQDB4,
// checksummed + tombstones), or 3/2/1 for snapshots consumed by older
// builds (tombstones are dropped -- deleted records reload as alive).
Status SaveDatabase(const Database& db, const std::string& path,
                    int format_version = 4);

// Restores a database from a snapshot (any version); indexes are rebuilt
// via bulk load.
Result<Database> LoadDatabase(const std::string& path);

// The SIMQDB2+ per-relation summary block: min/max of the records' means
// and standard deviations, folded in id order over the relation's store.
// The loader recomputes it after the bulk load and compares the bytes.
struct StatsSummary {
  double mean_min = 0.0;
  double mean_max = 0.0;
  double std_min = 0.0;
  double std_max = 0.0;
};

StatsSummary SummarizeRelation(const Relation& relation);

}  // namespace simq

#endif  // SIMQ_CORE_PERSISTENCE_H_
