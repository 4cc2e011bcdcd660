#!/usr/bin/env python3
"""Unit tests for check_no_omp_env.py.

Run directly or via ctest (omp_env_guard_unit):

    python3 scripts/test_check_no_omp_env.py
"""

import os
import tempfile
import unittest

import check_no_omp_env


class GuardTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = self.tmp.name
        self.write("CMakeLists.txt", "find_package(OpenMP REQUIRED)\n"
                   "target_link_libraries(x OpenMP::OpenMP_CXX)\n")
        self.write("CMakePresets.json", '{"version": 3}\n')
        self.write(".github/workflows/ci.yml", "run: ctest -j 4\n")

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, rel, text):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(text)

    def paths(self):
        return [v[0] for v in check_no_omp_env.violations(self.root)]

    def test_clean_tree_passes(self):
        self.assertEqual(self.paths(), [])
        self.assertEqual(check_no_omp_env.main(["--root", self.root]), 0)

    def test_ctest_property_fails(self):
        self.write("tests/CMakeLists.txt",
                   "set_tests_properties(t PROPERTIES\n"
                   "  ENVIRONMENT OMP_NUM_THREADS=1)\n")
        self.assertEqual(check_no_omp_env.violations(self.root),
                         [("tests/CMakeLists.txt", 2,
                           "  ENVIRONMENT OMP_NUM_THREADS=1)")])
        self.assertEqual(check_no_omp_env.main(["--root", self.root]), 1)

    def test_cmake_module_preset_and_workflow_fail(self):
        self.write("cmake/Env.cmake", "set(ENV{GOMP_SPINCOUNT} 0)\n")
        self.write("CMakePresets.json",
                   '{"environment": {"OMP_WAIT_POLICY": "passive"}}\n')
        self.write(".github/workflows/nightly.yml",
                   "env:\n  OMP_NUM_THREADS: 1\n")
        self.assertEqual(sorted(self.paths()),
                         [".github/workflows/nightly.yml", "CMakePresets.json",
                          "cmake/Env.cmake"])

    def test_sources_and_build_trees_are_not_scanned(self):
        self.write("src/solver.cpp", "// OMP_NUM_THREADS is read here\n")
        self.write("build/CMakeCache.txt", "\n")
        self.write("build/sub/CMakeLists.txt", "OMP_NUM_THREADS\n")
        self.assertEqual(self.paths(), [])


if __name__ == "__main__":
    unittest.main()
