// Log collection server.
//
// The paper's companion tool paper describes an automated infrastructure
// that transfers Log Files off the phones.  This server is its model: each
// phone's upload agent ships its Log File as CRC-framed segments over the
// unreliable transport channels, and a transport::Reassembler files them
// (duplicate suppression, out-of-order merge, gap-safe reconstruction).
//
// `collectedLogs` returns each phone's reassembled copy, so analysis can
// run on uploaded data even for phones that died before campaign end, and
// on partial data for phones whose segments were permanently lost.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "analysis/dataset.hpp"
#include "transport/reassembly.hpp"

namespace symfail::fleet {

/// Streaming tap on the server's ingest path.  Implementations (the
/// fleet-health monitor) observe every accepted frame as it arrives, in
/// simulated time, without perturbing storage or acking.
class IngestObserver {
public:
    virtual ~IngestObserver() = default;
    /// A chunked frame decoded cleanly and was filed (duplicates included;
    /// see transport::IngestResult::duplicate).
    virtual void onFrameAccepted(const transport::IngestResult& frame) = 0;
};

/// Collection store over the chunked upload path.
class CollectionServer {
public:
    /// Receives one chunked-transport frame and returns the full
    /// reassembly outcome: `result.ack` is the ack to ship back to the
    /// phone (nullopt when the frame was rejected as damaged); the stored
    /// extent and the duplicate flag feed the provenance wiring.
    transport::IngestResult ingestFrame(std::string_view bytes);

    /// Snapshot usable by the analysis pipeline: every phone's reassembled
    /// Log File, sorted by phone name, with its segment coverage attached
    /// for the dataset's coverage-loss accounting.
    [[nodiscard]] std::vector<analysis::PhoneLog> collectedLogs() const;

    [[nodiscard]] const transport::Reassembler& reassembler() const {
        return reassembler_;
    }

    /// Attaches a streaming ingest tap (non-owning; nullptr detaches).
    /// Purely observational: attaching one never changes what the server
    /// stores or acks.
    void setIngestObserver(IngestObserver* observer) { observer_ = observer; }

    /// Approximate heap footprint of the server (the reassembler's chunk
    /// maps); deterministic for identical upload sequences.
    [[nodiscard]] std::size_t approxMemoryBytes() const;

private:
    transport::Reassembler reassembler_;
    IngestObserver* observer_{nullptr};
};

}  // namespace symfail::fleet
