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
#                     different requested parameters); checked on the
#                     schema walk's copy of each point.
#  REQUIRED_ARRAY_KEYS  arrays that must exist and be non-empty.
#  SERIES_OBJECT      every member of doc.<key> is an array, all of
#                     equal length (the metrics epoch-series contract).
if(NOT DEFINED JSON_FILE)
  message(FATAL_ERROR "pass -DJSON_FILE=<path>")
endif()
string(REPLACE "," ";" array_key_list "${REQUIRED_ARRAY_KEYS}")
string(REPLACE "," ";" unique_key_list "${UNIQUE_POINT_KEYS}")

file(READ "${JSON_FILE}" doc)

# Record the schema line `line` once, in first-seen order (global
# properties: a set lookup per line, no list copied per call).
function(schema_line line)
  get_property(seen GLOBAL PROPERTY "schema_seen:${line}" SET)
  if(NOT seen)
    set_property(GLOBAL PROPERTY "schema_seen:${line}" 1)
    set_property(GLOBAL APPEND PROPERTY schema_lines "${line}")
  endif()
endfunction()

# Fail unless the (UNIQUE_POINT_KEYS) tuple of `point`, the text of one
# element of doc.points, is new.
function(unique_point point)
  set(tuple "")
  foreach(key IN LISTS unique_key_list)
    string(JSON val GET "${point}" ${key})
    string(APPEND tuple "${key}=${val}/")
  endforeach()
  get_property(seen GLOBAL PROPERTY "point_seen:${tuple}" SET)
  if(seen)
    message(FATAL_ERROR
            "${JSON_FILE}: duplicate point ${tuple} in 'points'")
  endif()
  set_property(GLOBAL PROPERTY "point_seen:${tuple}" 1)
endfunction()

# Record the schema lines of the members of `json`, the text of an
# OBJECT or ARRAY (`type`) at `path`, and recurse into each composite
# member with its own text, GET once. Every string(JSON) call parses
# its whole input, so each member costs one read of its parent's text
# for its type (and its key), one GET if it is composite, and nothing
# more. Sets `keys` in the caller's scope to an object's member names.
function(schema_walk json type path)
  string(JSON n LENGTH "${json}")
  set(names "")
  set(first_keys "")
  if(n GREATER 0)
    math(EXPR last "${n} - 1")
    foreach(i RANGE ${last})
      if(type STREQUAL "OBJECT")
        string(JSON key MEMBER "${json}" ${i})
        list(APPEND names "${key}")
        set(child_path "${path}${key}")
      else()
        set(key ${i})
        set(child_path "${path}#")
      endif()
      string(JSON ctype TYPE "${json}" "${key}")
      string(TOLOWER "${ctype}" ctype_lc)
      schema_line("${child_path} ${ctype_lc}")
      if(ctype STREQUAL "OBJECT" OR ctype STREQUAL "ARRAY")
        string(JSON child GET "${json}" "${key}")
        if(unique_key_list AND path STREQUAL "points.")
          unique_point("${child}")
        endif()
        schema_walk("${child}" ${ctype} "${child_path}.")
        # Every object row of an array carries row 0's keys.
        if(type STREQUAL "ARRAY" AND ctype STREQUAL "OBJECT")
          if(i EQUAL 0)
            set(first_keys "${keys}")
          elseif(NOT keys STREQUAL first_keys)
            message(FATAL_ERROR
                    "${JSON_FILE}: '${path}${i}' has keys [${keys}], "
                    "'${path}0' has [${first_keys}]")
          endif()
        endif()
      endif()
    endforeach()
  endif()
  set(keys "${names}" PARENT_SCOPE)
endfunction()

if(DEFINED SCHEMA_FILE OR unique_key_list)
  string(JSON doc_type TYPE "${doc}")
  schema_walk("${doc}" ${doc_type} "")
endif()

if(DEFINED SCHEMA_FILE)
  get_property(schema_lines GLOBAL PROPERTY schema_lines)
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

if(unique_key_list)
  # The walk checked every point; fail if there were none to check.
  string(JSON points_type TYPE "${doc}" points)
endif()

message(STATUS "${JSON_FILE}: schema OK")
