// simlint fixture: lines at the 80-column limit, and a long string split
// into adjacent literals that print the same bytes. NOT compiled.
namespace fixture {

// Exactly 80 columns.
const char* kUsage = "Figure 2: counting-network throughput vs requester count";

// 80 code points, but more than 80 UTF-8 bytes.
const char* kNote = "§2.4 — computation migration beats shared memory on trees";

// A string too long for one line, split into adjacent literals.
const char* kSplit =
    "Tables 1-2: distributed B-tree throughput and bandwidth at zero think "
    "time, all schemes; optional unified-schema JSON export.";

}  // namespace fixture
