# Validate a machine-readable JSON artifact: the BENCH_*.json bench
# outputs and the observability JSONs emitted by --stats-json /
# --trace-out. Run as
#   cmake -DJSON_FILE=<path> [-DSCHEMA_FILE=<golden>] \
#         [-DUNIQUE_POINT_KEYS=a,b] [-DREQUIRED_ARRAY_KEYS=f,g.h] \
#         [-DSERIES_OBJECT=k.series] -P validate_bench_json.cmake
# Key lists are comma-separated; a dot inside a key descends into
# nested objects ("system.procs" checks doc.system.procs). No emitted
# key contains a literal dot, so the split is unambiguous.
#
#  SCHEMA_FILE        the document's field set must equal this golden
#                     file: one "path type" line per node (depth
#                     first, keys sorted), array indices folded to
#                     '#', so a field that appears, moves, vanishes or
#                     changes type is a reviewed diff. Every object in one array must
#                     carry the same keys (no sweep leg may emit
#                     narrower rows than the others).
#  UNIQUE_POINT_KEYS  each element of doc.points has a unique (a, b,
#                     ...) tuple (no point measured twice under
#                     different requested parameters).
#  REQUIRED_ARRAY_KEYS  arrays that must exist and be non-empty.
#  SERIES_OBJECT      every member of doc.<key> is an array, all of
#                     equal length (the metrics epoch-series contract).
if(NOT DEFINED JSON_FILE)
  message(FATAL_ERROR "pass -DJSON_FILE=<path>")
endif()
string(REPLACE "," ";" array_key_list "${REQUIRED_ARRAY_KEYS}")

file(READ "${JSON_FILE}" doc)

# Append the schema lines of the JSON text `json` at `path` to
# `schema_lines` in the caller's scope.
function(schema_walk json path)
  string(JSON type TYPE "${json}")
  string(JSON n LENGTH "${json}")
  set(lines "${schema_lines}")
  set(first_keys "")
  if(n GREATER 0)
    math(EXPR last "${n} - 1")
    foreach(i RANGE ${last})
      if(type STREQUAL "OBJECT")
        string(JSON key MEMBER "${json}" ${i})
        set(child_path "${path}${key}")
      else()
        set(key ${i})
        set(child_path "${path}#")
      endif()
      string(JSON ctype TYPE "${json}" "${key}")
      string(TOLOWER "${ctype}" ctype_lc)
      set(line "${child_path} ${ctype_lc}")
      list(FIND lines "${line}" seen)
      if(seen EQUAL -1)
        list(APPEND lines "${line}")
      endif()
      if(ctype STREQUAL "OBJECT" OR ctype STREQUAL "ARRAY")
        string(JSON child GET "${json}" "${key}")
        if(type STREQUAL "ARRAY" AND ctype STREQUAL "OBJECT")
          string(JSON m LENGTH "${child}")
          set(keys "")
          if(m GREATER 0)
            math(EXPR mlast "${m} - 1")
            foreach(k RANGE ${mlast})
              string(JSON member MEMBER "${child}" ${k})
              list(APPEND keys "${member}")
            endforeach()
          endif()
          if(i EQUAL 0)
            set(first_keys "${keys}")
          elseif(NOT keys STREQUAL first_keys)
            message(FATAL_ERROR
                    "${JSON_FILE}: '${path}${i}' has keys [${keys}], "
                    "'${path}0' has [${first_keys}]")
          endif()
        endif()
        set(schema_lines "${lines}")
        schema_walk("${child}" "${child_path}.")
        set(lines "${schema_lines}")
      endif()
    endforeach()
  endif()
  set(schema_lines "${lines}" PARENT_SCOPE)
endfunction()

if(DEFINED SCHEMA_FILE)
  set(schema_lines "")
  schema_walk("${doc}" "")
  list(JOIN schema_lines "\n" schema)
  file(READ "${SCHEMA_FILE}" golden)
  if(NOT "${schema}\n" STREQUAL golden)
    file(WRITE "${JSON_FILE}.schema" "${schema}\n")
    message(FATAL_ERROR
            "${JSON_FILE}: field set differs from ${SCHEMA_FILE}; if "
            "the change is intended, copy ${JSON_FILE}.schema over it")
  endif()
endif()

foreach(key IN LISTS array_key_list)
  string(REPLACE "." ";" path "${key}")
  string(JSON ktype ERROR_VARIABLE err TYPE "${doc}" ${path})
  if(err)
    message(FATAL_ERROR "${JSON_FILE}: missing key '${key}': ${err}")
  endif()
  if(NOT ktype STREQUAL "ARRAY")
    message(FATAL_ERROR
            "${JSON_FILE}: key '${key}' is not an array (${ktype})")
  endif()
  string(JSON len LENGTH "${doc}" ${path})
  if(len EQUAL 0)
    message(FATAL_ERROR "${JSON_FILE}: array '${key}' is empty")
  endif()
endforeach()

if(DEFINED SERIES_OBJECT)
  string(REPLACE "." ";" spath "${SERIES_OBJECT}")
  string(JSON stype ERROR_VARIABLE err TYPE "${doc}" ${spath})
  if(err OR NOT stype STREQUAL "OBJECT")
    message(FATAL_ERROR
            "${JSON_FILE}: '${SERIES_OBJECT}' must be an object: ${err}")
  endif()
  string(JSON series GET "${doc}" ${spath})
  string(JSON nmember LENGTH "${series}")
  if(nmember EQUAL 0)
    message(FATAL_ERROR
            "${JSON_FILE}: series object '${SERIES_OBJECT}' is empty")
  endif()
  set(series_len "")
  math(EXPR last "${nmember} - 1")
  foreach(i RANGE ${last})
    string(JSON member MEMBER "${series}" ${i})
    string(JSON mtype TYPE "${series}" "${member}")
    if(NOT mtype STREQUAL "ARRAY")
      message(FATAL_ERROR
              "${JSON_FILE}: series member '${SERIES_OBJECT}.${member}' "
              "is not an array (${mtype})")
    endif()
    string(JSON mlen LENGTH "${series}" "${member}")
    if(series_len STREQUAL "")
      set(series_len "${mlen}")
    elseif(NOT mlen EQUAL series_len)
      message(FATAL_ERROR
              "${JSON_FILE}: ragged series: '${SERIES_OBJECT}.${member}' "
              "has ${mlen} entries, expected ${series_len}")
    endif()
  endforeach()
endif()

if(UNIQUE_POINT_KEYS)
  string(REPLACE "," ";" unique_key_list "${UNIQUE_POINT_KEYS}")
  # Parse the document once for `points` and each point once for its
  # keys; GET on the whole document per key re-parses all of it.
  string(JSON points GET "${doc}" points)
  string(JSON npts LENGTH "${points}")
  set(seen_tuples "")
  math(EXPR last "${npts} - 1")
  foreach(i RANGE ${last})
    string(JSON point GET "${points}" ${i})
    set(tuple "")
    foreach(key IN LISTS unique_key_list)
      string(JSON val GET "${point}" ${key})
      string(APPEND tuple "${key}=${val}/")
    endforeach()
    list(FIND seen_tuples "${tuple}" dup_idx)
    if(NOT dup_idx EQUAL -1)
      message(FATAL_ERROR
              "${JSON_FILE}: duplicate point ${tuple} in 'points'")
    endif()
    list(APPEND seen_tuples "${tuple}")
  endforeach()
endif()

message(STATUS "${JSON_FILE}: schema OK")
