#!/usr/bin/env python3
"""Self-test for the token-stream linter (cpptok.py + dbscale_lint.py).

Three layers:

  1. tokenizer goldens — cpptok.lex over adversarial snippets: raw
     strings hiding comment markers and braces, block comments, digit
     separators, preprocessor continuations, macros carrying raw strings;
  2. structure goldens — function and scope recovery, including
     out-of-line constructors with member-initializer lists, and
     parameter classification (by-value / by-reference / by-pointer);
  3. fixture trees — the known-bad tree must produce every seeded
     violation with the expected multiplicity, including the fixtures
     that hide violations behind line breaks; the known-good tree (every
     suppression mechanism, and raw strings holding code-looking text)
     must stay finding-free.

Registered in CTest as `dbscale_lint_selftest`, so a silently-rotted
rule fails the tier-1 suite.
"""

import collections
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cpptok            # noqa: E402
import dbscale_lint      # noqa: E402

BAD_TREE = os.path.join(HERE, "testdata", "tree_bad")
GOOD_TREE = os.path.join(HERE, "testdata", "tree_good")

# Fixtures seeded with violations a line-based matcher misses (line-break
# evasions and function-granularity hot paths), with the finding count
# the token engine must report for each.
MISS_FIXTURES = {
    "src/stats/robust.cc": 2,       # multi-line fresh local + by-value param
    "src/scaler/split_compare.cc": 2,  # float == wrapped across lines
    "src/engine/discard_wrapped.cc": 1,  # (void) // comment \n Call();
    "src/fleet/hot_fn.cc": 2,       # // dbscale-hot function in a cold file
}


def run_tree(root):
    """{rule: count} over all token-engine findings in `root`."""
    counts = collections.Counter()
    for finding in dbscale_lint.lint_tree(root):
        counts[finding.rule] += 1
    return counts


def new_findings(root, relpaths=None):
    """Token-engine findings as a {(path, line, rule)} set."""
    return {(f.path, f.line_no, f.rule)
            for f in dbscale_lint.lint_tree(root, relpaths)}


def toks(text):
    return [(t.kind, t.text) for t in cpptok.lex(text).tokens]


class TokenizerTest(unittest.TestCase):
    """Goldens for the constructs line regexes cannot represent."""

    def test_raw_string_hides_comments_braces_quotes(self):
        text = 'const char* s = R"(// not a comment { } ")";\n'
        out = toks(text)
        self.assertIn((cpptok.STR, 'R"(// not a comment { } ")"'), out)
        self.assertNotIn((cpptok.PUNCT, "{"), out)

    def test_raw_string_custom_delimiter(self):
        text = 'auto s = R"ab(closes )" only at )ab";\n'
        kinds = [k for k, _ in toks(text)]
        self.assertEqual(kinds.count(cpptok.STR), 1)
        self.assertIn((cpptok.STR, 'R"ab(closes )" only at )ab"'), toks(text))

    def test_multiline_raw_string_line_numbers(self):
        text = 'auto s = R"(one\ntwo\nthree)";\nint after = 0;\n'
        res = cpptok.lex(text)
        after = [t for t in res.tokens if t.text == "after"]
        self.assertEqual(len(after), 1)
        self.assertEqual(after[0].line, 4)

    def test_block_comments_do_not_nest(self):
        # C++ block comments end at the FIRST '*/'.
        out = toks("/* outer /* inner */ int x;\n")
        self.assertEqual(out, [(cpptok.ID, "int"), (cpptok.ID, "x"),
                               (cpptok.PUNCT, ";")])

    def test_string_with_comment_markers_stays_code(self):
        out = toks('const char* s = "// /* */";\nint y;\n')
        self.assertIn((cpptok.ID, "y"), out)
        self.assertIn((cpptok.STR, '"// /* */"'), out)

    def test_char_literals_with_escapes(self):
        out = toks("char a = '\\''; char b = '\\\\'; char c = '\"';\n")
        chars = [t for k, t in out if k == cpptok.CHAR]
        self.assertEqual(chars, ["'\\''", "'\\\\'", "'\"'"])

    def test_digit_separators_and_hex_float(self):
        out = toks("auto a = 1'000'000; auto b = 0x1p3; auto c = 2.5e-3;\n")
        nums = [t for k, t in out if k == cpptok.NUM]
        self.assertEqual(nums, ["1'000'000", "0x1p3", "2.5e-3"])

    def test_float_literal_classifier(self):
        for lit in ("250.0", "1e5", "0x1p3", ".5", "2.5e-3", "1.f"):
            self.assertTrue(cpptok.is_float_literal(lit), lit)
        for lit in ("250", "0x10", "1'000", "0b101"):
            self.assertFalse(cpptok.is_float_literal(lit), lit)

    def test_preprocessor_continuation_is_one_directive(self):
        text = "#define FOO(x) \\\n  ((x) + kBase)\nint z;\n"
        res = cpptok.lex(text)
        pps = [tr for tr in res.trivia if tr.kind == cpptok.PP]
        self.assertEqual(len(pps), 1)
        self.assertEqual((pps[0].line, pps[0].end_line), (1, 2))
        self.assertEqual([t.text for t in res.tokens], ["int", "z", ";"])

    def test_raw_string_inside_macro_definition(self):
        text = '#define USAGE R"(a // b)"\nint y;\n'
        res = cpptok.lex(text)
        self.assertEqual([t.text for t in res.tokens], ["int", "y", ";"])
        self.assertEqual(len([tr for tr in res.trivia
                              if tr.kind == cpptok.PP]), 1)

    def test_maximal_munch_punctuation(self):
        self.assertIn((cpptok.PUNCT, "<<="), toks("a <<= b;\n"))
        self.assertIn((cpptok.PUNCT, ">>"), toks("x >> y;\n"))
        self.assertIn((cpptok.PUNCT, "<=>"), toks("a <=> b;\n"))


class StructureTest(unittest.TestCase):
    """Scope/function recovery goldens."""

    @staticmethod
    def model(text):
        return cpptok.StructureModel(cpptok.lex(text).tokens)

    def test_namespace_qualified_free_function(self):
        m = self.model(
            "namespace a::b {\nint Add(int x, int y) { return x + y; }\n}\n")
        self.assertEqual(len(m.functions), 1)
        fn = m.functions[0]
        self.assertEqual(fn.name, "Add")
        self.assertEqual([n for _, n in fn.scope_path], ["a::b"])
        self.assertEqual([p.name for p in fn.params], ["x", "y"])

    def test_out_of_line_ctor_with_member_init_list(self):
        # Regression: the parameter list must not be confused with the
        # last member-initializer's parentheses.
        m = self.model(
            "Runner::Runner(const Catalog& catalog,\n"
            "               RunnerOptions options)\n"
            "    : catalog_(catalog),\n"
            "      options_(std::move(options)),\n"
            "      enabled_(options_.fault.enabled()) {}\n")
        self.assertEqual(len(m.functions), 1)
        fn = m.functions[0]
        self.assertEqual(fn.qualified, "Runner::Runner")
        self.assertEqual([(p.name, p.by_ref) for p in fn.params],
                         [("catalog", True), ("options", False)])

    def test_member_function_out_of_line(self):
        m = self.model("void Store::Append(Sample s) { ++n_; }\n")
        self.assertEqual(m.functions[0].qualified, "Store::Append")

    def test_lambda_body_is_not_a_function_record(self):
        m = self.model("auto f = [](int x) { return x; };\n")
        self.assertEqual(m.functions, [])
        self.assertIn(cpptok.LAMBDA,
                      {s.kind for s in m.scope_of_open.values()})

    def test_param_classification(self):
        m = self.model("void F(std::vector<double>& ref,\n"
                       "       const Catalog* ptr,\n"
                       "       std::vector<int> val) {}\n")
        p = {q.name: q for q in m.functions[0].params}
        self.assertTrue(p["ref"].by_ref)
        self.assertTrue(p["ptr"].by_ptr)
        self.assertFalse(p["val"].by_ref or p["val"].by_ptr)

    def test_class_scope_recovered(self):
        m = self.model("namespace n {\nclass FooOptions {\n public:\n"
                       "  Status Validate() const;\n};\n}\n")
        names = {(s.kind, s.name) for s in m.scope_of_open.values()}
        self.assertIn((cpptok.CLASS, "FooOptions"), names)


class BadTreeTest(unittest.TestCase):
    """Every seeded violation must be found with expected multiplicity."""

    @classmethod
    def setUpClass(cls):
        cls.counts = run_tree(BAD_TREE)

    def test_wall_clock(self):
        # system_clock in report.cc; random_device + std::rand in fleet_sim.
        self.assertEqual(self.counts["wall-clock"], 3)

    def test_unordered_container(self):
        # unordered_map in report.cc; unordered_set in fleet_sim.cc.
        self.assertEqual(self.counts["unordered-container"], 2)

    def test_alloc_hot_path(self):
        # manager.cc: fresh local, resize, reserve, make_unique, new,
        # by-value param (6); robust.cc: wrapped local + wrapped by-value
        # param (2); hot_fn.cc: annotated function local + resize (2).
        self.assertEqual(self.counts["alloc-hot-path"], 10)

    def test_float_equality(self):
        # thresholds.cc: ==, !=, reversed (3); split_compare.cc: two
        # comparisons wrapped across lines (2).
        self.assertEqual(self.counts["float-equality"], 5)

    def test_discarded_status(self):
        # engine.cc: (void)Flush(), (void)obj.Apply(1); discard_wrapped.cc:
        # (void) split from its call by a comment and newline.
        self.assertEqual(self.counts["discarded-status"], 3)

    def test_nodiscard_guard(self):
        # status.h fixture is missing class [[nodiscard]].
        self.assertEqual(self.counts["nodiscard-guard"], 1)

    def test_mutable_global(self):
        # fleet_sim.cc: unordered_set global; semantic.cc: pointer-keyed
        # map + double.
        self.assertEqual(self.counts["mutable-global"], 3)

    def test_pointer_key_container(self):
        self.assertEqual(self.counts["pointer-key-container"], 1)

    def test_nodiscard_status_fn(self):
        # semantic.cc: anon-namespace Status fn; ops.h: header declaration.
        self.assertEqual(self.counts["nodiscard-status-fn"], 2)

    def test_options_validate(self):
        # semantic.cc: Run(const SweepOptions&) never calls Validate().
        self.assertEqual(self.counts["options-validate"], 1)

    def test_no_unexpected_rules(self):
        expected = {"wall-clock", "unordered-container", "alloc-hot-path",
                    "float-equality", "discarded-status", "nodiscard-guard",
                    "mutable-global", "pointer-key-container",
                    "nodiscard-status-fn", "options-validate"}
        self.assertEqual(set(self.counts), expected)

    def test_line_break_evasions_are_caught(self):
        """Each evasion fixture yields exactly its seeded findings."""
        for rel, expected in MISS_FIXTURES.items():
            with self.subTest(fixture=rel):
                got = new_findings(BAD_TREE, [rel])
                self.assertEqual(len(got), expected, got)

    def test_hot_annotation_is_function_scoped(self):
        # Findings in hot_fn.cc must all fall inside the annotated
        # function; the cold function below it allocates without findings.
        lines = sorted(ln for path, ln, rule in new_findings(BAD_TREE)
                       if path == "src/fleet/hot_fn.cc")
        self.assertEqual(len(lines), MISS_FIXTURES["src/fleet/hot_fn.cc"])
        self.assertTrue(all(ln <= 13 for ln in lines), lines)


class GoodTreeTest(unittest.TestCase):
    """Suppressions and exemptions must keep the good tree finding-free."""

    def test_clean(self):
        counts = run_tree(GOOD_TREE)
        self.assertEqual(dict(counts), {},
                         "good fixture tree produced findings")

    def test_raw_strings_are_not_code(self):
        """The raw-string usage fixture, whose text looks like
        violations once a line stripper mangles it, stays clean."""
        self.assertEqual(new_findings(GOOD_TREE, ["src/sim/usage.cc"]),
                         set())


class CliTest(unittest.TestCase):
    """The command-line entry point must exit 1 on findings, 0 when clean."""

    def run_cli(self, root, *extra):
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "dbscale_lint.py"),
             "--root", root] + list(extra),
            capture_output=True, text=True, check=False)

    def test_bad_tree_exits_nonzero(self):
        proc = self.run_cli(BAD_TREE)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("[wall-clock]", proc.stdout)
        self.assertIn("finding(s)", proc.stderr)

    def test_good_tree_exits_zero(self):
        proc = self.run_cli(GOOD_TREE)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("OK", proc.stdout)

    def test_missing_root_is_usage_error(self):
        proc = self.run_cli(os.path.join(HERE, "testdata", "no_such_tree"))
        self.assertEqual(proc.returncode, 2)

    def test_single_path_subset(self):
        proc = self.run_cli(BAD_TREE, "src/scaler/thresholds.cc")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("thresholds.cc", proc.stdout)
        self.assertNotIn("manager.cc", proc.stdout)

    def test_shipped_tree_is_clean(self):
        repo_root = os.path.normpath(os.path.join(HERE, "..", ".."))
        proc = self.run_cli(repo_root)
        self.assertEqual(proc.returncode, 0,
                         "shipped tree has lint findings:\n" + proc.stdout)

    def test_diff_mode_on_shipped_tree(self):
        # The shipped tree is clean, so the changed-file subset is too;
        # --diff must succeed whether or not git metadata is available.
        repo_root = os.path.normpath(os.path.join(HERE, "..", ".."))
        proc = self.run_cli(repo_root, "--diff")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
