// simlint fixture: lines over the 80 columns of .clang-format's ColumnLimit,
// which CI's format step enforces. NOT compiled.
namespace fixture {

// A usage string on one line, as the benches' were before they were split.
const char* kUsage = "Figure 2: throughput vs requesters";  // EXPECT-LINT: SL001

// 81 code points, but 84 UTF-8 bytes: columns count code points.
const char* kNote = "§2.4 — computation goes to the data";  // EXPECT-LINT: SL001

// 74 code points, but the tab advances to column 8: 81 columns.
	const char* kTabbed = "migration moves one frame";  // EXPECT-LINT: SL001

}  // namespace fixture
