# Check a stats text dump (--stats) against the stats JSON (--stats-json)
# of the same run. Both render one StatsNode tree (obs/stats_tree.hh),
# so every text line "path value..." must name a JSON path that holds
# the same value: numbers and names equal, flags 1/0 as true/false, a
# "path.count N" line the length of the array at path, and a Vector
# line the whole array. The text dump is thereby the required-key list
# of the JSON, derived from the schema instead of kept by hand. Run as
#   cmake -DTEXT_FILE=<stats.txt> -DJSON_FILE=<stats.json> \
#         -P validate_stats_text.cmake
if(NOT DEFINED TEXT_FILE OR NOT DEFINED JSON_FILE)
  message(FATAL_ERROR "pass -DTEXT_FILE=<path> -DJSON_FILE=<path>")
endif()
file(READ "${JSON_FILE}" doc)
file(STRINGS "${TEXT_FILE}" lines)

# Lines come in tree order, so consecutive lines share a parent: look
# each parent up once and query the small sub-document, not the whole
# file, per line. Each level of the parent's path stays cached
# (level_<k> is the text under its first k components), so a new
# parent re-reads only the levels it does not share with the last one,
# each from the level above it.
set(nchecked 0)
set(parent "<none>")
set(chain "")
set(level_0 "${doc}")
foreach(line IN LISTS lines)
  if(line MATCHES "^-+ (begin|end) tcc stats -+$")
    continue()
  endif()
  if(NOT line MATCHES "^([^ ]+) ?(.*)$")
    message(FATAL_ERROR "${TEXT_FILE}: malformed line '${line}'")
  endif()
  set(key "${CMAKE_MATCH_1}")
  set(val "${CMAKE_MATCH_2}")
  if(key MATCHES "^(.+)\\.([^.]+)$")
    set(want_parent "${CMAKE_MATCH_1}")
    set(leaf "${CMAKE_MATCH_2}")
  else()
    set(want_parent "")
    set(leaf "${key}")
  endif()
  if(NOT want_parent STREQUAL parent)
    set(parent "${want_parent}")
    string(REPLACE "." ";" want_chain "${parent}")
    list(LENGTH want_chain depth)
    list(LENGTH chain cached)
    set(k 0)
    while(k LESS depth AND k LESS cached)
      list(GET want_chain ${k} want_comp)
      list(GET chain ${k} comp)
      if(NOT want_comp STREQUAL comp)
        break()
      endif()
      math(EXPR k "${k} + 1")
    endwhile()
    while(k LESS depth)
      list(GET want_chain ${k} comp)
      math(EXPR next "${k} + 1")
      string(JSON level_${next} ERROR_VARIABLE err GET "${level_${k}}"
             "${comp}")
      if(err)
        message(FATAL_ERROR "${JSON_FILE}: no key '${parent}' (in text "
                            "dump): ${err}")
      endif()
      set(k ${next})
    endwhile()
    set(chain "${want_chain}")
    set(sub "${level_${depth}}")
    string(JSON sub_type TYPE "${sub}")
  endif()

  # "path.count N" on a List: the JSON array length.
  if(sub_type STREQUAL "ARRAY" AND leaf STREQUAL "count")
    string(JSON len LENGTH "${sub}")
    if(NOT len EQUAL val)
      message(FATAL_ERROR "${key}: text says ${val}, JSON array has "
                          "${len} entries")
    endif()
    math(EXPR nchecked "${nchecked} + 1")
    continue()
  endif()

  string(JSON jtype ERROR_VARIABLE err TYPE "${sub}" "${leaf}")
  if(err)
    message(FATAL_ERROR "${JSON_FILE}: no key '${key}' (in text dump)")
  endif()
  string(JSON jval GET "${sub}" "${leaf}")
  if(jtype STREQUAL "BOOLEAN")
    if(val STREQUAL "1")
      set(want ON)
    else()
      set(want OFF)
    endif()
  elseif(jtype STREQUAL "NUMBER")
    # Re-read the text value through the JSON parser so both sides use
    # one number formatting.
    string(JSON want GET "[${val}]" 0)
  elseif(jtype STREQUAL "ARRAY")
    string(REPLACE " " "," csv "${val}")
    string(JSON want GET "{\"v\":[${csv}]}" v)
  else()
    set(want "${val}")
  endif()
  if(NOT jval STREQUAL want)
    message(FATAL_ERROR "${key}: text says '${val}', JSON says '${jval}'")
  endif()
  math(EXPR nchecked "${nchecked} + 1")
endforeach()

if(nchecked EQUAL 0)
  message(FATAL_ERROR "${TEXT_FILE}: no stats lines")
endif()
message(STATUS "${TEXT_FILE}: ${nchecked} lines match ${JSON_FILE}")
