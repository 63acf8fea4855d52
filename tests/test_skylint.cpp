// tools/skylint — the repo lint pass.
//
// Every rule must fire on a seeded violation and stay silent on the idiom
// the repo actually ships; the stripper tests pin the property that makes
// the token rules safe (comments and string literals never match).  The
// include-graph layering rules (L001/L002/L003) are exercised on synthetic
// in-memory trees, and the real checkout (SKYLINT_REPO_ROOT) is asserted
// clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "skylint/layers.hpp"
#include "skylint/lint.hpp"

namespace {

using skylint::check_layering;
using skylint::LayerManifest;
using skylint::parse_manifest;
using skylint::scan_file;
using skylint::scan_includes;
using skylint::SourceFile;
using skylint::strip_comments_and_strings;
using skylint::Violation;

std::vector<std::string> rules_of(const std::vector<Violation>& vs) {
    std::vector<std::string> out;
    out.reserve(vs.size());
    for (const Violation& v : vs) out.push_back(v.rule);
    return out;
}

bool fires(const std::vector<Violation>& vs, const std::string& rule) {
    for (const Violation& v : vs)
        if (v.rule == rule) return true;
    return false;
}

// ---------------------------------------------------------------- stripper --

TEST(Skylint, StripperBlanksCommentsAndStrings) {
    const std::string src =
        "int a; // new int\n"
        "/* delete b; */ int c;\n"
        "const char* s = \"new X\";\n";
    const std::string stripped = strip_comments_and_strings(src);
    EXPECT_EQ(stripped.find("new"), std::string::npos);
    EXPECT_EQ(stripped.find("delete"), std::string::npos);
    EXPECT_NE(stripped.find("int a;"), std::string::npos);
    EXPECT_NE(stripped.find("int c;"), std::string::npos);
}

TEST(Skylint, StripperPreservesLineNumbers) {
    const std::string src = "a\n/* two\nlines */\nb\n";
    const std::string stripped = strip_comments_and_strings(src);
    EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
              std::count(src.begin(), src.end(), '\n'));
}

TEST(Skylint, StripperHandlesEscapedQuotes) {
    const std::string src = "const char* s = \"a \\\" delete b\"; int new_var;\n";
    const std::string stripped = strip_comments_and_strings(src);
    EXPECT_EQ(stripped.find("delete"), std::string::npos);
    EXPECT_NE(stripped.find("new_var"), std::string::npos);
}

// ------------------------------------------------------------ raw new/delete

TEST(Skylint, RawNewFiresInsideSrc) {
    const auto vs = scan_file("src/serve/engine.cpp", "int* p = new int;\n");
    ASSERT_TRUE(fires(vs, "raw-new-delete")) << vs.size();
    EXPECT_EQ(vs[0].line, 1);
}

TEST(Skylint, RawDeleteFiresButDeletedFunctionsDoNot) {
    EXPECT_TRUE(fires(scan_file("src/nn/conv.cpp", "delete p;\n"), "raw-new-delete"));
    EXPECT_FALSE(fires(scan_file("src/nn/conv.cpp",
                                 "Conv2d(const Conv2d&) = delete;\n"),
                       "raw-new-delete"));
}

TEST(Skylint, AllocatorLayerMayUseNew) {
    EXPECT_FALSE(
        fires(scan_file("src/tensor/tensor.cpp", "float* p = new float[n];\n"),
              "raw-new-delete"));
    EXPECT_FALSE(fires(scan_file("src/core/thread_pool.cpp", "delete job;\n"),
                       "raw-new-delete"));
}

TEST(Skylint, NewInsideIdentifierOrStringDoesNotFire) {
    EXPECT_FALSE(fires(scan_file("src/nn/conv.cpp", "int new_size = 3;\n"),
                       "raw-new-delete"));
    EXPECT_FALSE(fires(scan_file("src/nn/conv.cpp",
                                 "throw std::runtime_error(\"new shape\");\n"),
                       "raw-new-delete"));
}

// ----------------------------------------------------------------- mutex-doc

TEST(Skylint, UndocumentedMutexMemberFires) {
    EXPECT_TRUE(fires(scan_file("src/serve/queue.hpp", "    std::mutex mu_;\n"),
                      "mutex-doc"));
}

TEST(Skylint, DocumentedMutexPasses) {
    EXPECT_FALSE(fires(scan_file("src/serve/queue.hpp",
                                 "    std::mutex mu_;  // guards q_; leaf lock\n"),
                       "mutex-doc"));
    EXPECT_FALSE(fires(scan_file("src/serve/queue.hpp",
                                 "    // guards the job slot\n    std::mutex mu_;\n"),
                       "mutex-doc"));
}

TEST(Skylint, MutexUsesThatAreNotMembersPass) {
    for (const char* ok : {"std::lock_guard<std::mutex> lk(mu_);\n",
                           "void f(std::mutex& m);\n",
                           "std::unique_lock<std::mutex> lk(mu_);\n"})
        EXPECT_FALSE(fires(scan_file("src/serve/queue.hpp", ok), "mutex-doc")) << ok;
}

// -------------------------------------------- mutex-doc: extended coverage

TEST(Skylint, SharedAndRecursiveMutexAndCondVarNeedDocs) {
    for (const char* bad : {"    std::shared_mutex rw_;\n",
                            "    std::recursive_mutex rec_;\n",
                            "    std::condition_variable cv_;\n",
                            "    std::condition_variable_any cv_;\n",
                            "    core::Mutex mu_;\n",
                            "    core::CondVar ready_;\n",
                            "    mutable Mutex mu_;\n"})
        EXPECT_TRUE(fires(scan_file("src/serve/queue.hpp", bad), "mutex-doc")) << bad;
}

TEST(Skylint, TrailingAnnotationMacrosStillParseAsADeclaration) {
    // `Mutex mu_ SKY_ACQUIRED_AFTER(submit_mu_);` is a member declaration
    // and must still require a doc comment.
    EXPECT_TRUE(fires(scan_file("src/core/thread_pool.hpp",
                                "    Mutex mu_ SKY_ACQUIRED_AFTER(submit_mu_);\n"),
                      "mutex-doc"));
    EXPECT_FALSE(fires(scan_file(
                           "src/core/thread_pool.hpp",
                           "    Mutex mu_ SKY_ACQUIRED_AFTER(submit_mu_);  // guards x\n"),
                       "mutex-doc"));
}

TEST(Skylint, MutexLockAndScopedTypesAreNotMutexMembers) {
    for (const char* ok : {"    core::MutexLock lk(mu_);\n",
                           "    MutexLock lk(mu_);\n",
                           "    explicit MutexLock(Mutex& mu);\n",
                           "    friend class CondVar;\n"})
        EXPECT_FALSE(fires(scan_file("src/serve/queue.hpp", ok), "mutex-doc")) << ok;
}

TEST(Skylint, CommentNamedGuardedFieldsMustCarrySkyGuardedBy) {
    // The comment says q_ is guarded, but q_'s declaration has no
    // SKY_GUARDED_BY: the doc and the checked contract have drifted.
    const std::string drifted =
        "    core::Mutex mu_;  // guards q_\n"
        "    std::deque<int> q_;\n";
    EXPECT_TRUE(fires(scan_file("src/serve/queue.hpp", drifted), "mutex-doc"));

    const std::string agreed =
        "    core::Mutex mu_;  // guards q_\n"
        "    std::deque<int> q_ SKY_GUARDED_BY(mu_);\n";
    EXPECT_FALSE(fires(scan_file("src/serve/queue.hpp", agreed), "mutex-doc"));
}

TEST(Skylint, GuardedFieldCheckHandlesCapitalisedGuardsAndWrappedDecls) {
    const std::string block =
        "    // Guards workers_; taken before the queue locks.\n"
        "    core::Mutex mu_;\n"
        "    std::vector<std::thread> workers_\n"
        "        SKY_GUARDED_BY(mu_);\n";
    EXPECT_FALSE(fires(scan_file("src/serve/engine.hpp", block), "mutex-doc"));
}

TEST(Skylint, GuardedFieldCheckSkipsProseAndNonAnnotatableTypes) {
    // "cv waits" is prose, not a field; std::mutex is not an annotatable
    // capability, so its comment-named fields are not required to carry
    // SKY_GUARDED_BY (they cannot, meaningfully).
    EXPECT_FALSE(fires(scan_file("src/serve/queue.hpp",
                                 "    core::Mutex mu_;  // guards both cv waits\n"),
                       "mutex-doc"));
    EXPECT_FALSE(fires(scan_file("src/serve/queue.hpp",
                                 "    std::mutex mu_;  // guards q_\n"
                                 "    std::deque<int> q_;\n"),
                       "mutex-doc"));
}

// ------------------------------------------------------------------ raw-sync

TEST(Skylint, RawStdSyncTypesFireInsideSrc) {
    for (const char* bad : {"std::mutex mu_;\n",
                            "std::lock_guard<std::mutex> lk(mu_);\n",
                            "std::condition_variable cv_;\n",
                            "std::condition_variable_any cv_;\n"})
        EXPECT_TRUE(fires(scan_file("src/serve/queue.hpp", bad), "raw-sync")) << bad;
}

TEST(Skylint, RawSyncExemptsTheWrapperFileAndNonSrcTrees) {
    EXPECT_FALSE(fires(scan_file("src/core/mutex.hpp", "std::mutex mu_;\n"),
                       "raw-sync"));
    // Tests/tools may exercise the std types directly (e.g. this file).
    EXPECT_FALSE(fires(scan_file("tests/test_core.cpp",
                                 "std::lock_guard<std::mutex> lk(m);\n"),
                       "raw-sync"));
}

TEST(Skylint, CoreWrappersAndLookalikesPass) {
    for (const char* ok : {"core::Mutex mu_;  // guards q_\n",
                           "core::MutexLock lk(mu_);\n",
                           "std::shared_mutex rw_;  // guards cache\n",
                           "int std_mutex_count = 0;\n"})
        EXPECT_FALSE(fires(scan_file("src/serve/queue.hpp", ok), "raw-sync")) << ok;
}

// -------------------------------------------------------- using-namespace-std

TEST(Skylint, UsingNamespaceStdFires) {
    EXPECT_TRUE(fires(scan_file("tests/foo.cpp", "using namespace std;\n"),
                      "using-namespace-std"));
    EXPECT_TRUE(fires(scan_file("tests/foo.cpp", "using  namespace   std ;\n"),
                      "using-namespace-std"));
}

TEST(Skylint, ScopedUsingsPass) {
    for (const char* ok : {"using namespace std::chrono_literals;\n",
                           "using Clock = std::chrono::steady_clock;\n",
                           "using std::vector;\n"})
        EXPECT_FALSE(fires(scan_file("tests/foo.cpp", ok), "using-namespace-std")) << ok;
}

// ------------------------------------------------------------ include-hygiene

TEST(Skylint, RelativeIncludeFires) {
    EXPECT_TRUE(fires(scan_file("src/nn/conv.cpp", "#include \"../tensor/tensor.hpp\"\n"),
                      "include-hygiene"));
}

TEST(Skylint, BitsStdcppFires) {
    EXPECT_TRUE(fires(scan_file("tests/foo.cpp", "#include <bits/stdc++.h>\n"),
                      "include-hygiene"));
}

TEST(Skylint, UnrootedQuotedIncludeFiresOnlyInSrc) {
    EXPECT_TRUE(fires(scan_file("src/nn/conv.cpp", "#include \"conv.hpp\"\n"),
                      "include-hygiene"));
    EXPECT_FALSE(fires(scan_file("src/nn/conv.cpp", "#include \"nn/conv.hpp\"\n"),
                       "include-hygiene"));
    EXPECT_FALSE(fires(scan_file("tools/skylint/main.cpp",
                                 "#include \"skylint/lint.hpp\"\n"),
                       "include-hygiene"));
}

TEST(Skylint, AngledSystemIncludesPass) {
    EXPECT_FALSE(fires(scan_file("src/nn/conv.cpp", "#include <vector>\n"),
                       "include-hygiene"));
}

// ----------------------------------------------------------------- plumbing --

TEST(Skylint, SuppressionCommentWaivesTheLine) {
    EXPECT_FALSE(fires(scan_file("src/nn/conv.cpp",
                                 "int* p = new int;  // skylint-ok: arena test\n"),
                       "raw-new-delete"));
}

TEST(Skylint, ViolationStrHasFileLineRule) {
    const auto vs = scan_file("src/nn/conv.cpp", "\nint* p = new int;\n");
    ASSERT_TRUE(fires(vs, "raw-new-delete"));
    EXPECT_EQ(vs[0].str().find("src/nn/conv.cpp:2: [raw-new-delete]"), 0u)
        << vs[0].str();
}

TEST(Skylint, CleanFileReportsNothing) {
    const std::string clean =
        "#include \"nn/conv.hpp\"\n"
        "#include <memory>\n"
        "auto p = std::make_unique<int>(3);\n";
    const auto vs = scan_file("src/nn/conv.cpp", clean);
    EXPECT_TRUE(vs.empty()) << rules_of(vs).size();
}

TEST(Skylint, ViolationJsonEscapesQuotes) {
    const Violation v{"src/a.cpp", 3, "L001", "include of \"b/c.hpp\" bad\t\r\x01"};
    const std::string j = v.json();
    EXPECT_NE(j.find("\"file\": \"src/a.cpp\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"line\": 3"), std::string::npos) << j;
    EXPECT_NE(j.find("\\\"b/c.hpp\\\" bad\\t\\r\\u0001\""), std::string::npos) << j;
}

// ------------------------------------------------------------ scan_includes --

TEST(Skylint, ScanIncludesFindsQuotedAndAngledButNotCommentedOut) {
    const std::string src =
        "#include \"nn/conv.hpp\"\n"
        "#include <vector>\n"
        "// #include \"detect/box.hpp\"\n";
    const auto incs = scan_includes(src);
    ASSERT_EQ(incs.size(), 2u);
    EXPECT_EQ(incs[0].path, "nn/conv.hpp");
    EXPECT_EQ(incs[0].line, 1);
    EXPECT_FALSE(incs[0].angled);
    EXPECT_EQ(incs[1].path, "vector");
    EXPECT_TRUE(incs[1].angled);
}

// ----------------------------------------------------- layering: the L rules --

// A tiny three-module world: base <- mid <- top.
std::vector<SourceFile> tiny_tree() {
    return {
        {"src/base/base.hpp", "#pragma once\nint base();\n"},
        {"src/mid/mid.hpp", "#pragma once\n#include \"base/base.hpp\"\n"},
        {"src/top/top.hpp", "#pragma once\n#include \"mid/mid.hpp\"\n"},
    };
}

LayerManifest tiny_manifest(std::vector<Violation>& diags) {
    return parse_manifest("tools/skylint/layers.txt",
                          "base:\nmid: base\ntop: mid\n", diags);
}

TEST(SkylintLayers, CleanTreePassesAgainstItsManifest) {
    std::vector<Violation> diags;
    const LayerManifest m = tiny_manifest(diags);
    EXPECT_TRUE(diags.empty());
    const auto vs = check_layering(tiny_tree(), &m);
    EXPECT_TRUE(vs.empty()) << (vs.empty() ? "" : vs[0].str());
}

TEST(SkylintLayers, L001FiresOnAnEdgeTheManifestDoesNotAllow) {
    std::vector<Violation> diags;
    const LayerManifest m = tiny_manifest(diags);
    auto files = tiny_tree();
    // base reaching up into top is exactly what the manifest forbids.
    files[0].content = "#pragma once\n#include \"top/top.hpp\"\nint base();\n";
    const auto vs = check_layering(files, &m);
    ASSERT_TRUE(fires(vs, "L001"));
    const Violation& v = vs[0];
    EXPECT_EQ(v.file, "src/base/base.hpp");
    EXPECT_EQ(v.line, 2);
    EXPECT_NE(v.message.find("'base'"), std::string::npos) << v.message;
    EXPECT_NE(v.message.find("'top'"), std::string::npos) << v.message;
}

TEST(SkylintLayers, L001FiresOnceForAModuleMissingFromTheManifest) {
    std::vector<Violation> diags;
    const LayerManifest m = tiny_manifest(diags);
    auto files = tiny_tree();
    files.push_back({"src/rogue/rogue.hpp",
                     "#pragma once\n#include \"base/base.hpp\"\n"
                     "#include \"mid/mid.hpp\"\n"});
    const auto vs = check_layering(files, &m);
    int count = 0;
    for (const Violation& v : vs)
        if (v.rule == "L001") ++count;
    EXPECT_EQ(count, 1) << "undeclared module reported once, not per edge";
    EXPECT_NE(vs[0].message.find("not declared"), std::string::npos);
}

TEST(SkylintLayers, L002FiresOnAModuleCycleEvenIfTheManifestAllowsIt) {
    // The manifest blesses both directions — the cycle must still be fatal.
    std::vector<Violation> diags;
    const LayerManifest m =
        parse_manifest("tools/skylint/layers.txt", "a: b\nb: a\n", diags);
    EXPECT_TRUE(diags.empty());
    const std::vector<SourceFile> files = {
        {"src/a/a.hpp", "#pragma once\n#include \"b/b.hpp\"\n"},
        {"src/b/b.hpp", "#pragma once\n#include \"a/a.hpp\"\n"},
    };
    const auto vs = check_layering(files, &m);
    ASSERT_TRUE(fires(vs, "L002"));
    for (const Violation& v : vs)
        if (v.rule == "L002") {
            EXPECT_NE(v.message.find("a <-> b"), std::string::npos) << v.message;
        }
}

TEST(SkylintLayers, L003FiresOnAHeaderWithoutPragmaOnce) {
    auto files = tiny_tree();
    files[1].content = "#include \"base/base.hpp\"\nint mid();\n";
    const auto vs = check_layering(files, nullptr);  // no manifest: L003 still runs
    ASSERT_TRUE(fires(vs, "L003"));
    EXPECT_EQ(vs[0].file, "src/mid/mid.hpp");
    // ...but a commented-out pragma must not count as one.
    files[1].content = "// #pragma once\nint mid();\n";
    EXPECT_TRUE(fires(check_layering(files, nullptr), "L003"));
}

TEST(SkylintLayers, MissingManifestSkipsL001ButKeepsL002) {
    const std::vector<SourceFile> files = {
        {"src/a/a.hpp", "#pragma once\n#include \"b/b.hpp\"\n"},
        {"src/b/b.hpp", "#pragma once\n#include \"a/a.hpp\"\n"},
    };
    const auto vs = check_layering(files, nullptr);
    EXPECT_FALSE(fires(vs, "L001"));
    EXPECT_TRUE(fires(vs, "L002"));
}

TEST(SkylintLayers, ManifestParserRejectsBadLines) {
    std::vector<Violation> diags;
    (void)parse_manifest("tools/skylint/layers.txt",
                         "no colon here\n"
                         "a: a\n"          // self-dependency
                         "a: b\n"          // duplicate of a (also: b undeclared)
                         "c: missing\n",   // dep never declared
                         diags);
    ASSERT_GE(diags.size(), 4u);
    for (const Violation& v : diags) EXPECT_EQ(v.rule, "L000") << v.str();
}

TEST(SkylintLayers, SelfAndSystemIncludesAreNotModuleEdges) {
    std::vector<Violation> diags;
    const LayerManifest m = tiny_manifest(diags);
    auto files = tiny_tree();
    files[0].content =
        "#pragma once\n#include <vector>\n#include \"base/detail.hpp\"\n";
    files.push_back({"src/base/detail.hpp", "#pragma once\n"});
    const auto vs = check_layering(files, &m);
    EXPECT_TRUE(vs.empty()) << (vs.empty() ? "" : vs[0].str());
}

// ------------------------------------------------------- the real checkout --

// The whole point of the analyzer: the tree this test was built from must be
// clean.  SKYLINT_REPO_ROOT is injected by tests/CMakeLists.txt.
#ifdef SKYLINT_REPO_ROOT
TEST(SkylintLayers, RealCheckoutIsClean) {
    const auto vs = skylint::scan_tree(SKYLINT_REPO_ROOT);
    std::string all;
    for (const Violation& v : vs) all += v.str() + "\n";
    EXPECT_TRUE(vs.empty()) << all;
}
#endif

}  // namespace
