package main

import (
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run smoqed's main instead of the tests,
// so a test can read what the daemon itself prints.
const runMainEnv = "SMOQED_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagsMatchServerDoc: the flags `smoqed -h` lists are exactly the
// rows of the flag table in docs/SERVER.md, so adding, renaming or
// removing a flag without its row fails here.
func TestFlagsMatchServerDoc(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	// -h exits after printing the usage; its status carries no news.
	out, _ := cmd.CombinedOutput()
	var flags []string
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.HasPrefix(line, "  -") {
			continue
		}
		// The test binary's own flags share the flag set; they are not
		// smoqed's.
		if name := strings.Fields(line)[0][1:]; !strings.HasPrefix(name, "test.") {
			flags = append(flags, name)
		}
	}
	if !slices.Contains(flags, "addr") {
		t.Fatalf("smoqed -h printed no -addr flag:\n%s", out)
	}

	doc, err := os.ReadFile("../../docs/SERVER.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(string(doc), "\n") {
		if rest, ok := strings.CutPrefix(line, "| `-"); ok {
			rows = append(rows, rest[:strings.IndexAny(rest, " `")])
		}
	}
	slices.Sort(flags)
	slices.Sort(rows)
	if !slices.Equal(flags, rows) {
		t.Errorf("smoqed flags and docs/SERVER.md's flag table differ:\n  smoqed -h: %v\n  SERVER.md: %v", flags, rows)
	}
}
