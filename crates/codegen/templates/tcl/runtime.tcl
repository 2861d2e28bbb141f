# orb_runtime.tcl -- the custom tcl ORB underneath generated stubs/skeletons.
#
# The paper (§4.2): "it took us about two weeks and 700 lines of tcl code
# to build an IIOP compatible tcl ORB. This exercise enabled the
# integration of an existing tcl management GUI application with a
# CORBA-based distributed system."
#
# This runtime is the reproduction of that artifact: a small [incr Tcl]
# ORB speaking the HeidiRMI text protocol, organized exactly as the
# paper's Figs 4 & 5 -- Call objects, a Connector (ObjectCommunicator),
# and a BOA with a bootstrap port. Experiment E7 counts these lines.

package require Itcl
namespace import itcl::*
namespace eval heidl {}

# ---------------------------------------------------------------------------
# Marshaling: one newline-terminated line of space-separated tokens.

proc heidl::quoteString {s} {
    set s [string map {\\ \\\\ \" \\\" \n \\n \r \\r} $s]
    return "\"$s\""
}

proc heidl::unquoteToken {tok} {
    if {[string index $tok 0] eq "\""} {
        set body [string range $tok 1 end]
        return [string map {\\n \n \\r \r \\\" \" \\\\ \\} $body]
    }
    return $tok
}

# A Call carries the request header plus marshaled arguments, and after
# `send` holds the reply tokens for extraction.
class Call {
    variable tokens_ {}
    variable reply_ {}
    variable pos_ 0
    variable connector_ ""
    variable header_ ""

    constructor {connector target method} {
        set connector_ $connector
        set header_ [list [heidl::quoteString $target] \
                          [heidl::quoteString $method] T]
    }

    method insertString {s}  { lappend tokens_ [heidl::quoteString $s] }
    method insertLong {v}    { lappend tokens_ [expr {int($v)}] }
    method insertFloat {v}   { lappend tokens_ [expr {double($v)}] }
    method insertBool {v}    { lappend tokens_ [expr {$v ? "T" : "F"}] }
    method insertObject {o}  { lappend tokens_ [heidl::quoteString [$o ior]] }

    method send {} {
        set line [join [concat $header_ $tokens_] " "]
        set reply_ [$connector_ roundTrip $line]
        set pos_ 0
        # Reply status: octet 0 = OK, else repo-id + detail follow.
        set status [lindex $reply_ 0]
        set pos_ 1
        if {$status != 0} {
            set repo [heidl::unquoteToken [lindex $reply_ 1]]
            set detail [heidl::unquoteToken [lindex $reply_ 2]]
            error "remote exception $repo: $detail"
        }
    }

    method nextToken {} {
        set t [lindex $reply_ $pos_]
        incr pos_
        return $t
    }

    method extractString {} { return [heidl::unquoteToken [$this nextToken]] }
    method extractLong {}   { return [expr {int([$this nextToken])}] }
    method extractFloat {}  { return [expr {double([$this nextToken])}] }
    method extractBool {}   { return [expr {[$this nextToken] eq "T"}] }
    method extractObject {} {
        return [BOA::stubFor [heidl::unquoteToken [$this nextToken]]]
    }

    method release {} { itcl::delete object $this }
}

# ---------------------------------------------------------------------------
# Connector: the ObjectCommunicator. One cached socket per endpoint;
# requests are demarcated by newlines (the text protocol's framing).

class Connector {
    variable sock_ ""
    variable host_ ""
    variable port_ 0

    constructor {host port} {
        set host_ $host
        set port_ $port
    }

    method ensureOpen {} {
        if {$sock_ eq ""} {
            set sock_ [socket $host_ $port_]
            fconfigure $sock_ -buffering line -translation lf
        }
    }

    method roundTrip {line} {
        $this ensureOpen
        puts $sock_ $line
        if {[gets $sock_ reply] < 0} {
            close $sock_
            set sock_ ""
            error "connection closed before reply"
        }
        return $reply
    }

    method getRequestCall {stub method oneway} {
        return [Call #auto $this [$stub ior] $method]
    }

    method shutdown {} {
        if {$sock_ ne ""} { close $sock_; set sock_ "" }
    }
}

# ---------------------------------------------------------------------------
# Stub and Skel bases (generated classes inherit these).

class Stub {
    protected variable pb_ior_ ""
    protected variable pb_connector_ ""

    constructor {ior connector} {
        set pb_ior_ $ior
        set pb_connector_ $connector
    }

    method ior {} { return $pb_ior_ }
}

class Skel {
    protected variable pb_obj_ ""

    constructor {implObj} {
        set pb_obj_ $implObj
    }
}

# ---------------------------------------------------------------------------
# BOA: object registry, bootstrap port, dispatch loop (paper Fig 5).

namespace eval BOA {
    variable objects
    variable skels
    variable mappings
    variable nextId 1
    variable listener ""
    variable port 0

    proc addIdlMapping {cls repoId} {
        variable mappings
        set mappings($repoId) $cls
    }

    proc export {skel repoId} {
        variable objects
        variable nextId
        variable port
        set id $nextId
        incr nextId
        set objects($id) $skel
        return "@tcp:[info hostname]:$port#$id#$repoId"
    }

    proc stubFor {ior} {
        variable mappings
        # @tcp:host:port#id#repoId
        set rest [string range $ior 1 end]
        set parts [split $rest "#"]
        set url [split [lindex $parts 0] ":"]
        set host [lindex $url 1]
        set p [lindex $url 2]
        set repoId [lindex $parts 2]
        set cls $mappings($repoId)
        set connector [Connector #auto $host $p]
        return [${cls}Stub #auto $ior $connector]
    }

    proc listen {p} {
        variable listener
        variable port
        set listener [socket -server BOA::accept $p]
        set port [lindex [fconfigure $listener -sockname] 2]
        return $port
    }

    proc accept {sock addr p} {
        fconfigure $sock -buffering line -translation lf
        fileevent $sock readable [list BOA::serve $sock]
    }

    proc serve {sock} {
        variable objects
        if {[gets $sock line] < 0} {
            close $sock
            return
        }
        # Header: "target" "method" response-expected, then arguments.
        set target [heidl::unquoteToken [lindex $line 0]]
        set method [heidl::unquoteToken [lindex $line 1]]
        set expectReply [expr {[lindex $line 2] eq "T"}]
        set args [lrange $line 3 end]
        set id [lindex [split [string range $target 1 end] "#"] 1]
        if {![info exists objects($id)]} {
            if {$expectReply} {
                puts $sock "2 \"IDL:heidl/UnknownObject:1.0\" \"no such object\""
            }
            return
        }
        set call [IncomingCall #auto $args]
        if {[catch {set result [$objects($id) $method $call]} err]} {
            if {$expectReply} {
                puts $sock "2 \"IDL:heidl/DispatchFailed:1.0\" [heidl::quoteString $err]"
            }
        } elseif {$expectReply} {
            puts $sock [concat "0" [$call replyTokens]]
        }
        itcl::delete object $call
    }
}

# Server-side view of one request: extraction walks the argument tokens,
# insertion builds the reply.
class IncomingCall {
    variable args_ {}
    variable pos_ 0
    variable reply_ {}

    constructor {args} {
        set args_ [lindex $args 0]
    }

    method nextToken {} {
        set t [lindex $args_ $pos_]
        incr pos_
        return $t
    }

    method extractString {} { return [heidl::unquoteToken [$this nextToken]] }
    method extractLong {}   { return [expr {int([$this nextToken])}] }
    method extractFloat {}  { return [expr {double([$this nextToken])}] }
    method extractBool {}   { return [expr {[$this nextToken] eq "T"}] }

    method insertString {s} { lappend reply_ [heidl::quoteString $s] }
    method insertLong {v}   { lappend reply_ [expr {int($v)}] }
    method insertFloat {v}  { lappend reply_ [expr {double($v)}] }
    method insertBool {v}   { lappend reply_ [expr {$v ? "T" : "F"}] }

    method replyTokens {} { return $reply_ }
}
