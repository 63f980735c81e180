package protocol

// Typed protocol errors. The two memcached error classes — client-caused
// ("CLIENT_ERROR <msg>") and server-caused ("SERVER_ERROR <msg>") — carry
// their exact wire renderings for BOTH protocols: the text line is derived
// from the class and message, the binary status code rides in the value.
// Every recoverable refusal, including the tx* commands', goes through
// replyError / binReplyError so the two paths cannot drift.

// ClientError is a recoverable, client-caused command failure: the command
// was understood but its arguments or state were wrong. The connection stays
// usable.
type ClientError struct {
	Msg    string
	Status uint16 // binary-protocol status code
}

func (e *ClientError) Error() string { return "CLIENT_ERROR " + e.Msg }

// ServerError is a server-side refusal: the command was valid but this server
// (branch configuration, resources) cannot serve it. The connection stays
// usable.
type ServerError struct {
	Msg    string
	Status uint16
}

func (e *ServerError) Error() string { return "SERVER_ERROR " + e.Msg }

// replyError renders a typed error on the text protocol. Unknown error types
// render as SERVER_ERROR: reaching that case is a bug, but the connection
// must still get a parseable line.
func (c *Conn) replyError(err error) error {
	switch e := err.(type) {
	case *ClientError:
		return c.reply("CLIENT_ERROR " + e.Msg + "\r\n")
	case *ServerError:
		return c.reply("SERVER_ERROR " + e.Msg + "\r\n")
	}
	return c.reply("SERVER_ERROR " + err.Error() + "\r\n")
}

// binReplyError renders the same typed error on the binary protocol: the
// class's status code in the header, the message as the value.
func (c *Conn) binReplyError(req binHeader, err error) error {
	switch e := err.(type) {
	case *ClientError:
		return c.binError(req, e.Status, e.Msg)
	case *ServerError:
		return c.binError(req, e.Status, e.Msg)
	}
	return c.binError(req, StatusUnknownCommand, err.Error())
}
