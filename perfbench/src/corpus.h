// Seeded inputs for one workload, and the oracle answers for them.
//
// Everything the resolvers will see is generated here, before any socket is
// bound: the advertised names, the distinct queries, the order in which the
// generator draws them, and the churn write schedule. The oracle runs on the
// reference matcher (LinearNameTable / Matches), never on the name-tree
// under test.

#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ins/name/name_specifier.h"
#include "ins/nametree/name_record.h"

namespace perfbench {

// Sinks the deliveries fan out to. Each query owns two of them (SinksOf): its
// least-metric record gets the first and every other match the second, so a
// wrong pick lands elsewhere, and so, for most pairs of queries, does a
// delivery to a record of another query.
inline constexpr uint32_t kSinks = 16;
// Record ids at or above this are fresh names (churn writes, probes).
inline constexpr uint32_t kFreshBase = 1000000;
// Every advertisement comes from one announcer host; the discriminator is the
// record id.
inline constexpr uint32_t kAnnouncerIp = 0x0b000001;

struct WorkloadSpec {
  std::string name;
  size_t names = 0;             // stable names advertised at b
  bool early_binding = false;   // resolve: B-flag requests answered at a
  // churn: fresh names (2 s lifetime) and metric changes of stable names are
  // written at b next to the reads.
  bool churn = false;
  // Where the measured window starts, in seconds after one of b's 15 s full
  // refreshes. Fixing the phase fixes which timers land inside the window.
  double window_phase_s = 0;
};

const WorkloadSpec* FindWorkload(const std::string& name);

struct Record {
  std::string text;
  ins::NameSpecifier spec;
  double metric = 0;
  uint32_t sink = 0;
};

struct Query {
  std::string text;
  ins::NameSpecifier spec;
  uint32_t expected_sink = 0;      // anycast: sink of the least-metric match
  uint32_t sink_mask = 0;          // churn: sinks of every record that can win
  std::vector<uint32_t> matches;   // resolve: matching record ids, ascending
};

struct Write {
  int64_t due_ns = 0;  // offset from the start of the schedule
  bool fresh = false;  // true: advertise fresh[index]; false: re-advertise records[index]
  uint32_t index = 0;
  double metric = 0;
};

struct Corpus {
  std::vector<Record> records;
  std::vector<Query> queries;
  std::vector<uint32_t> draws;  // query index of each op, used cyclically
  std::vector<Record> fresh;
  std::vector<Write> writes;    // churn schedule, or the discovery probe
  uint64_t hash = 0;            // FNV-1a over all of the above
};

// `write_seconds` is how long the churn schedule must last.
Corpus BuildCorpus(const WorkloadSpec& spec, uint64_t seed, double write_seconds);

// The endpoint every advertisement of record `id` carries: the sink's address
// and one port binding unique to the record.
ins::EndpointInfo EndpointFor(uint32_t id, const ins::NodeAddress& sink);
// Inverse of the binding half of EndpointFor; UINT32_MAX if malformed.
uint32_t RecordIdOf(const ins::EndpointInfo& endpoint);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
