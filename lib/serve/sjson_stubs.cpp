/* The number kernel behind Sjson's printer.

   C++17 specifies std::to_chars(first, last, x, chars_format::general, N)
   to produce the text of printf("%.Ng", x) in the C locale, and
   chars_format::fixed with precision 0 that of printf("%.0f", x).
   libstdc++ implements both exactly (Ryu printf), without the format
   string parsing and locale lookups of glibc's printf, so Sjson prints
   the same bytes as caml_format_float at a fraction of the cost.

   This file is compiled apart from linalg's stubs, which build with
   -ffast-math: the printer must see IEEE semantics. */

#include <charconv>

#include <caml/mlvalues.h>

extern "C" {

/* [mfti_sjson_print buf off prec x] writes into [buf] at [off] the text
   of [x] under %.0f (prec = 0) or %.<prec>g, and returns its length, or
   -1 when the text does not fit. */
intnat mfti_sjson_print(value buf, intnat off, intnat prec, double x)
{
  char *first = (char *)Bytes_val(buf) + off;
  char *last = (char *)Bytes_val(buf) + caml_string_length(buf);
  std::to_chars_result r =
    prec == 0 ? std::to_chars(first, last, x, std::chars_format::fixed, 0)
              : std::to_chars(first, last, x, std::chars_format::general,
                              (int)prec);
  return r.ec == std::errc() ? (intnat)(r.ptr - first) : -1;
}

value mfti_sjson_print_byte(value buf, value off, value prec, value x)
{
  return Val_long(
      mfti_sjson_print(buf, Long_val(off), Long_val(prec), Double_val(x)));
}

}
