/**
 * @file
 * Logging and error reporting in the gem5 idiom.
 *
 * panic()  — an internal invariant of the simulator itself was violated;
 *            aborts so a debugger/core dump can inspect the state.
 * fatal()  — the simulation cannot continue because of a user-level
 *            configuration problem; exits with status 1.
 * warn()   — something is modelled approximately; simulation continues.
 * inform() — status messages with no connotation of incorrect behaviour.
 */

#ifndef KELLE_COMMON_LOG_HPP
#define KELLE_COMMON_LOG_HPP

#include <sstream>
#include <string>

namespace kelle {

/** Verbosity threshold for inform(); warnings always print. */
enum class LogLevel { Quiet, Normal, Verbose };

/** Set the global log level (default Normal). */
void setLogLevel(LogLevel level);
LogLevel logLevel();

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Fold a pack of stream-formattable arguments into one string. */
template <typename... Args>
std::string
fold(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Abort on a simulator bug. Usage: panic("bad state: ", x). */
#define KELLE_PANIC(...) \
    ::kelle::detail::panicImpl(__FILE__, __LINE__, \
                               ::kelle::detail::fold(__VA_ARGS__))

/** Exit on a user configuration error. */
#define KELLE_FATAL(...) \
    ::kelle::detail::fatalImpl(__FILE__, __LINE__, \
                               ::kelle::detail::fold(__VA_ARGS__))

/** Assert a simulator invariant; panics with the condition text. */
#define KELLE_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            ::kelle::detail::panicImpl(__FILE__, __LINE__, \
                ::kelle::detail::fold("assertion failed: " #cond " ", \
                                      ##__VA_ARGS__)); \
        } \
    } while (0)

template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::fold(std::forward<Args>(args)...));
}

template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::fold(std::forward<Args>(args)...));
}

/**
 * The "; "-joined failure list a config struct's `validate()` returns
 * (empty when the config is usable).
 */
class ConfigErrors
{
  public:
    /** Record the message folded from `parts` unless `ok`. */
    template <typename... Args>
    void
    require(bool ok, Args &&...parts)
    {
        if (!ok)
            add(detail::fold(std::forward<Args>(parts)...));
    }
    /** Record a nested `validate()` result, if it is a failure. */
    void
    add(const std::string &err)
    {
        if (!err.empty())
            msg_ += (msg_.empty() ? "" : "; ") + err;
    }
    const std::string &str() const { return msg_; }

  private:
    std::string msg_;
};

} // namespace kelle

#endif // KELLE_COMMON_LOG_HPP
