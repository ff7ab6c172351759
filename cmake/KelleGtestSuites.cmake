# Per-suite ctest registration for GoogleTest binaries.
#
# `gtest_discover_tests` registers one ctest entry per *case*, which
# maximizes sharding but costs one process spawn per case (265+ spawns
# for the fast tier, each paying sanitizer start-up under ASan).
# `kelle_discover_suite_tests` registers one ctest entry per *suite*
# instead: each entry runs `binary --gtest_filter=Suite.*`, so whole
# suites shard across `ctest -j` jobs with an order-of-magnitude fewer
# processes — the right granularity for sim-scale suites (test_cluster)
# and sanitizer runs.
#
# Like GoogleTest's own discovery, registration happens at build time:
# a file-level custom command (target `<target>_suite_discovery`, part
# of ALL) lists the binary's tests and writes an add_test() script per
# suite, regenerating whenever the binary relinks — and also when the
# script is missing, e.g. after enabling the option on an already-built
# tree where the binary itself is up to date. ctest pulls the script in
# through TEST_INCLUDE_FILES via a configure-time wrapper that fails
# with a clear message if the build step has not run yet.
#
#   kelle_discover_suite_tests(<target> [SLOW_SUITES <regex>])
#
# Suites matching SLOW_SUITES are registered with LABELS slow when
# KELLE_TEST_SLOW is ON and omitted entirely otherwise, mirroring the
# slow-tier split gtest_discover_tests(TEST_FILTER ...) implements.

set(_KELLE_GTEST_SUITE_DISCOVER_SCRIPT
    "${CMAKE_CURRENT_LIST_DIR}/KelleGtestSuiteDiscover.cmake")

function(kelle_discover_suite_tests TARGET)
    cmake_parse_arguments(ARG "" "SLOW_SUITES" "" ${ARGN})
    set(ctest_file
        "${CMAKE_CURRENT_BINARY_DIR}/${TARGET}_suite_tests.cmake")
    set(include_file
        "${CMAKE_CURRENT_BINARY_DIR}/${TARGET}_suite_include.cmake")
    file(WRITE "${include_file}"
"if(EXISTS \"${ctest_file}\")
    include(\"${ctest_file}\")
else()
    # Not built yet. Register a failing placeholder instead of
    # aborting ctest outright: a full run still fails loudly, but a
    # scoped run (ctest -R over the targets that WERE built) is not
    # held hostage by binaries it never asked for.
    add_test(${TARGET}_suites_not_discovered
        \"${CMAKE_COMMAND}\" -E echo
        \"suite list of ${TARGET} not generated yet - run the build \"
        \"(cmake --build <dir> --target ${TARGET}_suite_discovery) \"
        \"before ctest\")
    set_tests_properties(${TARGET}_suites_not_discovered PROPERTIES
        PASS_REGULAR_EXPRESSION \"unreachable: this test always fails\")
endif()
")
    add_custom_command(
        OUTPUT "${ctest_file}"
        COMMAND "${CMAKE_COMMAND}"
            -D "TEST_TARGET=${TARGET}"
            -D "TEST_EXECUTABLE=$<TARGET_FILE:${TARGET}>"
            -D "CTEST_FILE=${ctest_file}"
            -D "SLOW_SUITES=${ARG_SLOW_SUITES}"
            -D "SLOW_ENABLED=${KELLE_TEST_SLOW}"
            -P "${_KELLE_GTEST_SUITE_DISCOVER_SCRIPT}"
        DEPENDS ${TARGET} "${_KELLE_GTEST_SUITE_DISCOVER_SCRIPT}"
        WORKING_DIRECTORY "${CMAKE_CURRENT_BINARY_DIR}"
        COMMENT "Discovering test suites in ${TARGET}"
        VERBATIM)
    add_custom_target(${TARGET}_suite_discovery ALL
        DEPENDS "${ctest_file}")
    set_property(DIRECTORY APPEND PROPERTY TEST_INCLUDE_FILES
        "${include_file}")
endfunction()
