# git_stamp.cmake — write the build's source revision into a header.
#
#   cmake -DSOURCE_DIR=<repo> -DOUTPUT=<header> -P cmake/git_stamp.cmake
#
# Run as an always-out-of-date build step (see the root CMakeLists.txt), so
# the stamp follows the tree at build time, not at configure time: a new
# commit or an uncommitted edit shows up without re-running cmake. The
# header defines SNAPSTAB_GIT_SHA as `git describe --always --dirty
# --abbrev=7` ("<sha>" or "<sha>-dirty"), or "nogit" outside a git
# checkout. It is rewritten only when that value changes, so an unchanged
# tree recompiles nothing.
execute_process(
  COMMAND git -C "${SOURCE_DIR}" describe --always --dirty --abbrev=7
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT sha)
  set(sha "nogit")
endif()

set(text "// Generated by cmake/git_stamp.cmake at build time; do not edit.\n#define SNAPSTAB_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" old)
endif()
if(NOT "${old}" STREQUAL "${text}")
  file(WRITE "${OUTPUT}" "${text}")
endif()
