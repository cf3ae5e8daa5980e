# Validate the schema of a machine-readable JSON artifact (the
# BENCH_*.json bench outputs and the observability JSONs emitted by
# --stats-json / --trace-out): required numeric fields, optional
# required string fields, optional required non-empty arrays, plus a
# config object. Run as
#   cmake -DJSON_FILE=<path> [-DREQUIRED_KEYS=a,b.c] \
#         [-DREQUIRED_STRING_KEYS=d,e] \
#         [-DREQUIRED_ARRAY_KEYS=f,g.h] [-DSERIES_OBJECT=k.series] \
#         [-DREQUIRE_CONFIG=OFF] -P validate_bench_json.cmake
# Key lists are comma-separated; a dot inside a key descends into
# nested objects ("system.procs" checks doc.system.procs). No emitted
# key contains a literal dot, so the split is unambiguous.
# REQUIRED_KEYS defaults to the bench_kernel schema for backward
# compatibility; pass an explicitly empty value to skip numeric checks.
if(NOT DEFINED JSON_FILE)
  message(FATAL_ERROR "pass -DJSON_FILE=<path>")
endif()
if(NOT DEFINED REQUIRED_KEYS)
  set(REQUIRED_KEYS "events_per_sec,cycles_per_sec")
endif()
if(NOT DEFINED REQUIRE_CONFIG)
  set(REQUIRE_CONFIG ON)
endif()
string(REPLACE "," ";" key_list "${REQUIRED_KEYS}")
string(REPLACE "," ";" string_key_list "${REQUIRED_STRING_KEYS}")
string(REPLACE "," ";" array_key_list "${REQUIRED_ARRAY_KEYS}")

file(READ "${JSON_FILE}" doc)

foreach(key IN LISTS key_list)
  string(REPLACE "." ";" path "${key}")
  string(JSON val ERROR_VARIABLE err GET "${doc}" ${path})
  if(err)
    message(FATAL_ERROR "${JSON_FILE}: missing key '${key}': ${err}")
  endif()
  if(NOT val MATCHES "^-?[0-9]+(\\.[0-9]+)?([eE][-+]?[0-9]+)?$")
    message(FATAL_ERROR
            "${JSON_FILE}: key '${key}' is not numeric: '${val}'")
  endif()
endforeach()

foreach(key IN LISTS string_key_list)
  string(REPLACE "." ";" path "${key}")
  string(JSON ktype ERROR_VARIABLE err TYPE "${doc}" ${path})
  if(err)
    message(FATAL_ERROR "${JSON_FILE}: missing key '${key}': ${err}")
  endif()
  if(NOT ktype STREQUAL "STRING")
    message(FATAL_ERROR
            "${JSON_FILE}: key '${key}' is not a string (${ktype})")
  endif()
  string(JSON val GET "${doc}" ${path})
  if(val STREQUAL "")
    message(FATAL_ERROR "${JSON_FILE}: key '${key}' is empty")
  endif()
endforeach()

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

# Time-series object check: with -DSERIES_OBJECT=<key> every member of
# doc.<key> must be an array and all members must have equal length -
# the column contract of the metrics epoch series (one value per probe
# per closed epoch; a ragged series means a probe skipped an epoch).
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

if(REQUIRE_CONFIG)
  string(JSON cfg_type ERROR_VARIABLE err TYPE "${doc}" config)
  if(err OR NOT cfg_type STREQUAL "OBJECT")
    message(FATAL_ERROR "${JSON_FILE}: 'config' must be an object")
  endif()
endif()

# Optional per-point schema check: with -DPOINTS_ARRAY=<key> and
# -DPOINT_REQUIRED_KEYS=a,b every element of doc.<key> must contain
# each listed key. Guards against one sweep leg emitting rows with a
# narrower schema than the others (e.g. a sync mode that forgets its
# cadence counters).
if(DEFINED POINTS_ARRAY AND DEFINED POINT_REQUIRED_KEYS)
  string(REPLACE "," ";" point_key_list "${POINT_REQUIRED_KEYS}")
  string(JSON npts LENGTH "${doc}" ${POINTS_ARRAY})
  math(EXPR last "${npts} - 1")
  foreach(i RANGE ${last})
    foreach(key IN LISTS point_key_list)
      string(JSON val ERROR_VARIABLE err GET
             "${doc}" ${POINTS_ARRAY} ${i} ${key})
      if(err)
        message(FATAL_ERROR
                "${JSON_FILE}: point ${i} of '${POINTS_ARRAY}' is "
                "missing key '${key}': ${err}")
      endif()
    endforeach()
  endforeach()
endif()

# Optional duplicate-point check: with -DPOINTS_ARRAY=<key> and
# -DUNIQUE_POINT_KEYS=a,b each element of doc.<key> must have a unique
# (a, b, ...) tuple. Guards against a sweep emitting the same measured
# point twice under different requested parameters (e.g. a jobs value
# clamped to the domain count).
if(DEFINED POINTS_ARRAY AND DEFINED UNIQUE_POINT_KEYS)
  string(REPLACE "," ";" unique_key_list "${UNIQUE_POINT_KEYS}")
  string(JSON npts LENGTH "${doc}" ${POINTS_ARRAY})
  set(seen_tuples "")
  math(EXPR last "${npts} - 1")
  foreach(i RANGE ${last})
    set(tuple "")
    foreach(key IN LISTS unique_key_list)
      string(JSON val GET "${doc}" ${POINTS_ARRAY} ${i} ${key})
      string(APPEND tuple "${key}=${val}/")
    endforeach()
    list(FIND seen_tuples "${tuple}" dup_idx)
    if(NOT dup_idx EQUAL -1)
      message(FATAL_ERROR
              "${JSON_FILE}: duplicate point ${tuple} in "
              "'${POINTS_ARRAY}'")
    endif()
    list(APPEND seen_tuples "${tuple}")
  endforeach()
endif()

message(STATUS "${JSON_FILE}: schema OK")
